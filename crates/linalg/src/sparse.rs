//! Sparse CSR row blocks and their chunk kernels.
//!
//! The rating matrices the paper factorizes are >95% sparse: a MovieLens-
//! scale workload (10⁶ users × 10⁴ items, ~100 nonzeros per row) is three
//! orders of magnitude away from fitting densely in memory, yet its Gram
//! matrix `AᵀA` (the `O(nnz·m)` heart of ISVD2–4) is perfectly computable.
//! This module holds [`CsrShard`] — one row block in compressed-sparse-row
//! form: a [`CsrPattern`] (`row_ptr`/`col_idx` over a fixed column count)
//! and its `values` — and its [`RowBlock`] implementation: a CSR row
//! buffer and chunk kernels that fold **over stored entries only**.
//! Sources hand blocks over as [`CsrRows`] views: one borrowed pattern
//! with a stored payload, or with a payload formed per stored entry from
//! two arrays while the rows are copied into the row buffer. An interval
//! shard's upper bound and its midpoint–radius payloads stream this way
//! against the shard's one pattern, which no pass copies.
//!
//! Everything else is not repeated here: the accumulators
//! ([`GramAccumulator`](crate::GramAccumulator),
//! [`CrossGramAccumulator`](crate::CrossGramAccumulator)), the streamed
//! drivers ([`gram_streamed`](crate::gram_streamed),
//! [`matmul_streamed`](crate::matmul_streamed),
//! [`matmul_left_streamed_t`](crate::matmul_left_streamed_t)), the chunk
//! re-alignment onto the fixed [`STREAM_CHUNK_ROWS`](crate::STREAM_CHUNK_ROWS)-row global grid, the
//! two-level fold, the unit merge and the state text are one piece of
//! code for both block types (see the [`streaming`](crate::streaming)
//! module docs). A CSR source is any [`RowBlocks<CsrShard>`](RowBlocks):
//! one shard, a slice of shards or a lazy loader.
//!
//! ## Bitwise equality with the dense kernels
//!
//! The refactor's core discipline: for the same logical matrix (sparse
//! with explicitly stored values equal to the dense entries), every sparse
//! kernel here returns **bitwise identical** results to its dense
//! counterpart, for every shard layout and `IVMF_THREADS` count. That
//! holds because skipping a zero term never changes a sum's bits:
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

use crate::fold::{Gram, Partials, RowBuffer};
use crate::kernel::{fmadd, KC};
use crate::matrix::threads_for;
use crate::pending::PendingCsrRows;
use crate::{BlockView, LinalgError, Matrix, Result, RowBlock, RowBlocks, MATMUL_BLOCKED_MIN_WORK};
use std::borrow::Cow;

/// The structure of one CSR row block: `row_ptr` has `rows + 1` entries,
/// and row `i`'s stored entries sit at columns
/// `col_idx[row_ptr[i]..row_ptr[i+1]]` (strictly ascending, below
/// `cols`). A value payload aligned with `col_idx` makes it a
/// [`CsrShard`] (owned) or a [`CsrRows`] view (borrowed); one pattern can
/// carry several payloads, as the bounds of an interval shard do.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPattern {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
}

impl CsrPattern {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-offset array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The stored column indices, row-major, ascending within a row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Checks that `values` holds one value per stored entry.
    fn check_payload(&self, values: usize) -> Result<()> {
        if values != self.nnz() {
            return Err(LinalgError::InvalidArgument(format!(
                "pattern has {} stored entries, got {values} values",
                self.nnz()
            )));
        }
        Ok(())
    }
}

/// One row block of a sparse matrix in compressed-sparse-row (CSR) form:
/// a [`CsrPattern`] and its stored `values`.
///
/// Explicitly stored values may be anything, including `0.0` — a stored
/// zero behaves bitwise exactly like a dense zero entry, so
/// [`CsrShard::from_dense`]'s zero-dropping is invisible in results.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrShard {
    pub(crate) pattern: CsrPattern,
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
        let pattern = CsrPattern {
            rows,
            cols,
            row_ptr,
            col_idx,
        };
        Ok(CsrShard { pattern, values })
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
        let pattern = CsrPattern {
            rows,
            cols,
            row_ptr,
            col_idx,
        };
        CsrShard { pattern, values }
    }

    /// Materializes the dense matrix (the escape hatch for small
    /// fixtures; implicit entries become `0.0`).
    pub fn to_dense(&self) -> Matrix {
        self.view().to_dense()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells with a stored entry (`nnz / (rows·cols)`; 0 for
    /// an empty shape).
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// The sparsity pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// The row-offset array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.pattern.row_ptr
    }

    /// The stored column indices, row-major, ascending within a row.
    pub fn col_idx(&self) -> &[usize] {
        &self.pattern.col_idx
    }

    /// The stored values, aligned with [`CsrShard::col_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Row `i`'s stored `(columns, values)` slices.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.pattern.row_ptr[i], self.pattern.row_ptr[i + 1]);
        (&self.pattern.col_idx[s..e], &self.values[s..e])
    }

    /// The sub-shard of rows `start..end`.
    pub fn row_slice(&self, start: usize, end: usize) -> Result<CsrShard> {
        if start > end || end > self.rows() {
            return Err(LinalgError::InvalidArgument(format!(
                "row range {start}..{end} out of bounds for {} rows",
                self.rows()
            )));
        }
        let p = &self.pattern;
        let (s, e) = (p.row_ptr[start], p.row_ptr[end]);
        let pattern = CsrPattern {
            rows: end - start,
            cols: p.cols,
            row_ptr: p.row_ptr[start..=end].iter().map(|&q| q - s).collect(),
            col_idx: p.col_idx[s..e].to_vec(),
        };
        Ok(CsrShard {
            pattern,
            values: self.values[s..e].to_vec(),
        })
    }
}

impl RowBlocks<CsrShard> for CsrShard {
    fn rows(&self) -> usize {
        self.rows()
    }
    fn cols(&self) -> usize {
        self.cols()
    }
    fn for_each_block(&self, f: &mut dyn FnMut(CsrRows<'_>) -> Result<()>) -> Result<()> {
        f(self.view())
    }
}

/// A CSR row block as a source hands it over: a borrowed [`CsrPattern`]
/// and a value payload read against it in place. The payload is a stored
/// value array, or one formed per stored entry from two arrays — the
/// midpoint or magnitude of an interval shard's bounds — as the rows are
/// copied into a stream's row buffer, so neither is ever materialized as
/// a shard of its own.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a> {
    pattern: &'a CsrPattern,
    payload: Payload<'a>,
}

/// The values of a [`CsrRows`] view.
#[derive(Debug, Clone, Copy)]
enum Payload<'a> {
    /// Stored values, one per stored entry.
    Stored(&'a [f64]),
    /// `f(a[k], b[k])` for stored entry `k`.
    Formed(&'a [f64], &'a [f64], fn(f64, f64) -> f64),
}

impl<'a> CsrRows<'a> {
    /// `values` (one per stored entry) read against `pattern`.
    pub fn new(pattern: &'a CsrPattern, values: &'a [f64]) -> Result<Self> {
        pattern.check_payload(values.len())?;
        let payload = Payload::Stored(values);
        Ok(CsrRows { pattern, payload })
    }

    /// The values `f(a[k], b[k])`, formed per stored entry `k` of
    /// `pattern` whenever the view is read.
    pub fn formed(
        pattern: &'a CsrPattern,
        a: &'a [f64],
        b: &'a [f64],
        f: fn(f64, f64) -> f64,
    ) -> Result<Self> {
        pattern.check_payload(a.len())?;
        pattern.check_payload(b.len())?;
        let payload = Payload::Formed(a, b, f);
        Ok(CsrRows { pattern, payload })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols
    }

    /// The pattern the values are read against.
    pub fn pattern(&self) -> &'a CsrPattern {
        self.pattern
    }

    /// Stored entries `range` (indices into the pattern's `col_idx`),
    /// appended to `out`.
    pub(crate) fn extend_values(&self, out: &mut Vec<f64>, range: std::ops::Range<usize>) {
        match self.payload {
            Payload::Stored(v) => out.extend_from_slice(&v[range]),
            Payload::Formed(a, b, f) => {
                out.extend(
                    a[range.clone()]
                        .iter()
                        .zip(&b[range])
                        .map(|(&x, &y)| f(x, y)),
                );
            }
        }
    }

    /// Materializes the dense matrix (implicit entries become `0.0`).
    pub fn to_dense(&self) -> Matrix {
        let (rows, cols) = (self.rows(), self.cols());
        let mut values = Vec::with_capacity(self.pattern.nnz());
        self.extend_values(&mut values, 0..self.pattern.nnz());
        let mut out = Matrix::zeros(rows, cols);
        let p = self.pattern;
        for (i, row) in out.as_mut_slice().chunks_exact_mut(cols.max(1)).enumerate() {
            let range = p.row_ptr[i]..p.row_ptr[i + 1];
            for (&j, &v) in p.col_idx[range.clone()].iter().zip(&values[range]) {
                row[j] = v;
            }
        }
        out
    }
}

impl BlockView for CsrRows<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
}

// ---------------------------------------------------------------------------
// Chunk kernels: bitwise replicas of the dense per-chunk products, folding
// over stored entries only.
// ---------------------------------------------------------------------------

/// Gram partial `chunkᵀ · chunk` of one (at most [`STREAM_CHUNK_ROWS`](crate::STREAM_CHUNK_ROWS)-row)
/// CSR chunk, **upper triangle only**: the diagonal and the entries above
/// it are bitwise those of [`Matrix::gram`] of the densified chunk, and
/// the strict lower triangle stays zero.
///
/// The dense SYRK accumulates each upper-triangle entry `(a, b)` over the
/// chunk rows ascending — plain `+=` below [`MATMUL_BLOCKED_MIN_WORK`]
/// (skipping zero `ra`), a register-tile `fmadd` fold in a single packed
/// K-block (chunk rows ≤ [`STREAM_CHUNK_ROWS`](crate::STREAM_CHUNK_ROWS) < `KC`) at or above it. This
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
    let m = chunk.cols();
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
    let m = chunk.cols();
    debug_assert_eq!(out.shape(), (m, m));
    if chunk.rows() * m * m / 2 >= MATMUL_BLOCKED_MIN_WORK {
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
    for k in 0..chunk.rows() {
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
/// `a.cols() · rows · b.cols()`; chunk rows < `KC` keep the packed path in a
/// single K-block). Runs on the calling thread, like
/// [`csr_gram_chunk_upper_into`].
fn csr_cross_chunk(a: &CsrShard, b: &CsrShard) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "csr_cross_gram",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, ma, mb) = (a.rows(), a.cols(), b.cols());
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
    if chunk.cols() != rhs.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "csr_matmul",
            lhs: chunk.shape(),
            rhs: rhs.shape(),
        });
    }
    let (n, kdim, m) = (chunk.rows(), chunk.cols(), rhs.cols());
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
        // Workers follow the stored work: sized from the dense-equivalent
        // `work`, every 128-row chunk of a sparse stream would pay a
        // thread spawn and join for microseconds of arithmetic.
        let threads = threads_for(chunk.nnz() * m);
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
/// most [`STREAM_CHUNK_ROWS`](crate::STREAM_CHUNK_ROWS) < `KC`), so the packed path is a single
/// K-block — one `fmadd` fold per entry — and below
/// [`MATMUL_BLOCKED_MIN_WORK`] the naive kernel's plain `+=` with its
/// explicit skip of zero `lhs` entries.
fn csr_left_matmul_chunk_t(lhs: &Matrix, offset: usize, chunk: &CsrShard) -> Matrix {
    let (p, kdim, m) = (lhs.rows(), chunk.rows(), chunk.cols());
    debug_assert!(
        offset + kdim <= lhs.cols(),
        "the driver checked the column range"
    );
    debug_assert!(kdim <= KC, "left chunks come from the pending buffer");
    let fused = p * kdim * m >= MATMUL_BLOCKED_MIN_WORK;
    // Workers follow the stored work (see `csr_matmul_chunk`).
    let threads = threads_for(chunk.nnz() * p);
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
    out
}

/// CSR chunks run one at a time on the calling thread (the kernels split
/// their own row panels), fold over stored entries only, and recycle
/// their partials. The Gram folds upper-triangle partials through one
/// reused scratch per drain; the left product folds transposed partials.
impl RowBlock for CsrShard {
    type View<'a> = CsrRows<'a>;
    type Pending = PendingCsrRows;
    const GRAM_TAG: &'static str = "sparsegram";
    const CROSS_TAG: &'static str = "sparsecrossgram";
    const UPPER_GRAM: bool = true;
    const RECYCLE_PARTIALS: bool = true;
    const LEFT_T: bool = true;

    fn rows(&self) -> usize {
        self.rows()
    }
    fn cols(&self) -> usize {
        self.cols()
    }
    fn view(&self) -> CsrRows<'_> {
        CsrRows {
            pattern: &self.pattern,
            payload: Payload::Stored(&self.values),
        }
    }
    fn pending(cols: usize) -> PendingCsrRows {
        PendingCsrRows::new(cols)
    }
    fn recycle(self) {
        crate::pool::recycle_usize(self.pattern.row_ptr);
        crate::pool::recycle_usize(self.pattern.col_idx);
        crate::pool::recycle_f64(self.values);
    }
    fn map_chunks<T: Send>(
        full: usize,
        kernel: impl Fn(usize, bool) -> T + Sync,
        mut sink: impl FnMut(T) -> Result<()>,
    ) -> Result<()> {
        (0..full).try_for_each(|i| sink(kernel(i, true)))
    }
    fn fold_gram(rows: &PendingCsrRows, full: usize, sum: &mut Partials<Gram<Self>>) {
        let m = rows.partial_shape().0;
        // Pool-backed zeroed scratch: this drain runs once per
        // PAR_FOLD_CHUNKS chunks, so without the pool every drain would
        // allocate (and fault in) a fresh m×m buffer.
        let mut scratch = Matrix::from_vec(m, m, crate::pool::take_zeroed_f64(m * m))
            .expect("pooled buffer has exactly m*m elements");
        for i in 0..full {
            let c = rows.chunk(i);
            csr_gram_chunk_upper_into(&c, &mut scratch);
            c.recycle();
            sum.fold(Cow::Borrowed(&scratch));
            if i + 1 < full {
                zero_upper(&mut scratch);
            }
        }
        crate::pool::recycle_f64(scratch.into_vec());
    }
    fn gram_chunk(chunk: &CsrShard, _lone: bool) -> Matrix {
        csr_gram_chunk_upper(chunk)
    }
    fn cross_chunk(a: &CsrShard, b: &CsrShard, _lone: bool) -> Result<Matrix> {
        csr_cross_chunk(a, b)
    }
    fn right_chunk(chunk: &CsrShard, rhs: &Matrix, _lone: bool) -> Result<Matrix> {
        csr_matmul_chunk(chunk, rhs)
    }
    fn left_chunk(lhs: &Matrix, offset: usize, chunk: &CsrShard) -> Matrix {
        csr_left_matmul_chunk_t(lhs, offset, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::GROUP_ROWS;
    use crate::test_env::with_threads;
    use crate::{
        gram_streamed, matmul_left_streamed_t, matmul_streamed, CrossGramAccumulator,
        GramAccumulator, STREAM_CHUNK_ROWS,
    };

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

    /// `m` as consecutive CSR row blocks of at most `shard_rows` rows.
    fn csr_shards(m: &Matrix, shard_rows: usize) -> Vec<CsrShard> {
        let csr = CsrShard::from_dense(m);
        (0..m.rows())
            .step_by(shard_rows)
            .map(|r| csr.row_slice(r, (r + shard_rows).min(m.rows())).unwrap())
            .collect()
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
        // Another payload read against the same pattern, in place.
        let doubled: Vec<f64> = csr.values().iter().map(|v| 2.0 * v).collect();
        let view = CsrRows::new(csr.pattern(), &doubled).unwrap();
        assert_eq!(view.to_dense(), m.scale(2.0));
        let formed = CsrRows::formed(csr.pattern(), csr.values(), &doubled, |a, b| b - a).unwrap();
        assert_eq!(formed.to_dense(), m);
        assert!(CsrRows::new(csr.pattern(), &[0.0]).is_err());
        assert!(CsrRows::formed(csr.pattern(), csr.values(), &[0.0], |a, _| a).is_err());
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
            let sparse = csr_shards(&dense, shard_rows);
            let streamed = gram_streamed(&sparse[..]).unwrap();
            assert_bitwise(
                &streamed,
                &reference,
                &format!("sparse gram shard_rows={shard_rows}"),
            );
        }
        // Small-column case: every chunk takes the plain path.
        let small = lcg_sparse(n, 9, 3, 12);
        assert_bitwise(
            &gram_streamed(&CsrShard::from_dense(&small)).unwrap(),
            &gram_streamed(&small).unwrap(),
            "plain-path gram",
        );
    }

    #[test]
    fn sparse_gram_is_thread_count_invariant_bitwise() {
        let n = 3 * STREAM_CHUNK_ROWS + 11;
        let dense = lcg_sparse(n, 31, 5, 17);
        let sparse = csr_shards(&dense, 50);
        let single = with_threads(1, || gram_streamed(&sparse[..]).unwrap());
        let (quad, dense_ref) = with_threads(4, || {
            (
                gram_streamed(&sparse[..]).unwrap(),
                gram_streamed(&dense).unwrap(),
            )
        });
        assert_bitwise(&single, &quad, "threads 1 vs 4");
        assert_bitwise(&quad, &dense_ref, "threads 4 vs dense");
    }

    #[test]
    fn sparse_gram_accumulator_is_incremental_bitwise() {
        let head = lcg_sparse(200, 19, 4, 21);
        let tail = lcg_sparse(77, 19, 4, 22);
        let mut acc = GramAccumulator::<CsrShard>::new(19);
        acc.push_block(&CsrShard::from_dense(&head)).unwrap();
        let _intermediate = acc.finish(); // non-consuming
        acc.push_block(&CsrShard::from_dense(&tail)).unwrap();
        assert_eq!(acc.rows_seen(), 277);

        let mut dense_acc = GramAccumulator::<Matrix>::new(19);
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
        let mut acc = GramAccumulator::<CsrShard>::new(13);
        acc.push_block(&CsrShard::from_dense(&head)).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            GramAccumulator::<CsrShard>::read_state(&mut std::io::BufReader::new(&buf[..]))
                .unwrap();
        assert_eq!(restored.rows_seen(), acc.rows_seen());
        acc.push_block(&CsrShard::from_dense(&tail)).unwrap();
        restored.push_block(&CsrShard::from_dense(&tail)).unwrap();
        assert_bitwise(&restored.finish(), &acc.finish(), "continued sparse gram");

        let b_head = lcg_sparse(STREAM_CHUNK_ROWS + 50, 9, 3, 83);
        let b_tail = lcg_sparse(70, 9, 3, 84);
        let mut cross = CrossGramAccumulator::<CsrShard>::new(13, 9);
        cross
            .push_blocks(&CsrShard::from_dense(&head), &CsrShard::from_dense(&b_head))
            .unwrap();
        let mut buf = Vec::new();
        cross.write_state(&mut buf).unwrap();
        let mut restored =
            CrossGramAccumulator::<CsrShard>::read_state(&mut std::io::BufReader::new(&buf[..]))
                .unwrap();
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
        let mut acc = GramAccumulator::<CsrShard>::new(5);
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
            GramAccumulator::<CsrShard>::read_state(&mut std::io::BufReader::new(b)).unwrap_err()
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
        let mut dense_acc = CrossGramAccumulator::<Matrix>::new(13, 9);
        dense_acc.push_blocks(&a, &b).unwrap();
        let reference = dense_acc.finish().unwrap();
        for shard_rows in [1usize, 5, 64, n] {
            let sa = csr_shards(&a, shard_rows);
            let sb = csr_shards(&b, shard_rows);
            let mut acc = CrossGramAccumulator::<CsrShard>::new(13, 9);
            for (xa, xb) in sa.iter().zip(&sb) {
                acc.push_blocks(xa, xb).unwrap();
            }
            assert_eq!(acc.rows_seen(), n);
            assert_bitwise(
                &acc.finish().unwrap(),
                &reference,
                &format!("cross shard_rows={shard_rows}"),
            );
        }
        let mut acc = CrossGramAccumulator::<CsrShard>::new(13, 9);
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
            let sparse = csr_shards(&dense, shard_rows);
            assert_bitwise(
                &gram_streamed(&sparse[..]).unwrap(),
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
        let mut single = GramAccumulator::<CsrShard>::new(7);
        single.push_block(&csr).unwrap();

        let mut merged = GramAccumulator::<CsrShard>::new(7);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let mut worker = GramAccumulator::<CsrShard>::new(7);
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
        let mut off = GramAccumulator::<CsrShard>::new(7);
        off.push_block(&CsrShard::from_dense(&lcg_sparse(10, 7, 2, 105)))
            .unwrap();
        assert!(off
            .absorb_unit(GramAccumulator::<CsrShard>::new(7))
            .is_err());
        let mut big = GramAccumulator::<CsrShard>::new(7);
        big.push_block(&CsrShard::from_dense(&lcg_sparse(
            GROUP_ROWS + 1,
            7,
            1,
            106,
        )))
        .unwrap();
        assert!(GramAccumulator::<CsrShard>::new(7)
            .absorb_unit(big)
            .is_err());
        assert!(GramAccumulator::<CsrShard>::new(7)
            .absorb_unit(GramAccumulator::<CsrShard>::new(8))
            .is_err());
    }

    #[test]
    fn sparse_cross_absorb_unit_reproduces_the_single_accumulator_bits() {
        let n = GROUP_ROWS + 391;
        let a = CsrShard::from_dense(&lcg_sparse(n, 6, 2, 107));
        let b = CsrShard::from_dense(&lcg_sparse(n, 3, 2, 108));
        let mut single = CrossGramAccumulator::<CsrShard>::new(6, 3);
        single.push_blocks(&a, &b).unwrap();

        let mut merged = CrossGramAccumulator::<CsrShard>::new(6, 3);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let mut worker = CrossGramAccumulator::<CsrShard>::new(6, 3);
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
        assert!(CrossGramAccumulator::<CsrShard>::new(6, 3)
            .absorb_unit(CrossGramAccumulator::<CsrShard>::new(6, 4))
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
            let sparse = csr_shards(&dense, shard_rows);
            let streamed = matmul_streamed(&sparse[..], &rhs).unwrap();
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
            &matmul_streamed(&CsrShard::from_dense(&narrow), &nrhs).unwrap(),
            &matmul_streamed(&narrow, &nrhs).unwrap(),
            "naive-path matmul",
        );
        assert!(matmul_streamed(&CsrShard::from_dense(&narrow), &rhs).is_err());
    }

    #[test]
    fn sparse_left_matmul_streamed_matches_dense_bitwise() {
        let n = STREAM_CHUNK_ROWS + 83;
        let dense = lcg_sparse(n, 17, 4, 51);
        let lhs = lcg_sparse(6, n, n / 2, 52);
        let reference = matmul_left_streamed_t(&lhs, &dense).unwrap();
        for shard_rows in [1usize, 29, n] {
            let sparse = csr_shards(&dense, shard_rows);
            let streamed = matmul_left_streamed_t(&lhs, &sparse[..]).unwrap();
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
            &matmul_left_streamed_t(&wide_lhs, &CsrShard::from_dense(&dense)).unwrap(),
            &matmul_left_streamed_t(&wide_lhs, &dense).unwrap(),
            "fused left matmul",
        );
        assert!(
            matmul_left_streamed_t(&lcg_sparse(2, 3, 2, 1), &CsrShard::from_dense(&dense)).is_err()
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
        for threads in [1, 2] {
            with_threads(threads, || {
                for (l, m, path) in [(&lhs, &dense, "fused"), (&sparse_lhs, &narrow, "plain")] {
                    let reference = matmul_left_streamed_t(l, m).unwrap();
                    for shard_rows in [7usize, STREAM_CHUNK_ROWS, n] {
                        let sparse = csr_shards(m, shard_rows);
                        assert_bitwise(
                            &matmul_left_streamed_t(l, &sparse[..]).unwrap(),
                            &reference,
                            &format!(
                                "{path} transposed kernel, {threads} threads, shards of {shard_rows}"
                            ),
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn degenerate_inputs_match_dense_bitwise() {
        // All-zero matrix (zero stored entries).
        let zero = Matrix::zeros(STREAM_CHUNK_ROWS + 9, 12);
        let zcsr = CsrShard::from_dense(&zero);
        assert_eq!(zcsr.nnz(), 0);
        assert_bitwise(
            &gram_streamed(&zcsr).unwrap(),
            &gram_streamed(&zero).unwrap(),
            "all-zero gram",
        );
        // Single stored entry.
        let single = CsrShard::from_triplets(STREAM_CHUNK_ROWS + 5, 9, &[(130, 4, -2.5)]).unwrap();
        assert_bitwise(
            &gram_streamed(&single).unwrap(),
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
        let csr = csr_shards(&m, 37);
        assert_bitwise(
            &gram_streamed(&csr[..]).unwrap(),
            &gram_streamed(&m).unwrap(),
            "empty-row gram",
        );
        let rhs = lcg_sparse(11, 4, 4, 62);
        assert_bitwise(
            &matmul_streamed(&csr[..], &rhs).unwrap(),
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
            &gram_streamed(&with_zero).unwrap(),
            &gram_streamed(&m).unwrap(),
            "explicit zero gram",
        );
    }

    #[test]
    fn densifying_row_blocks_escape_hatch_matches_sparse_path() {
        let n = 2 * STREAM_CHUNK_ROWS + 33;
        let dense = lcg_sparse(n, 15, 3, 81);
        let sparse = csr_shards(&dense, 90);
        // The same blocks densified one at a time and folded by the
        // dense kernels agree with both reference paths.
        let densified: Vec<Matrix> = sparse.iter().map(CsrShard::to_dense).collect();
        assert_bitwise(
            &gram_streamed(&densified[..]).unwrap(),
            &gram_streamed(&dense).unwrap(),
            "densified blocks vs dense",
        );
        assert_bitwise(
            &gram_streamed(&densified[..]).unwrap(),
            &gram_streamed(&sparse[..]).unwrap(),
            "densified blocks vs sparse",
        );
    }

    #[test]
    fn sharded_construction_errors() {
        // A slice of CSR shards is a source of the matrix they stack.
        let m = lcg_sparse(6, 4, 2, 91);
        let mut sharded = csr_shards(&m, 4);
        assert_eq!(sharded.len(), 2);
        assert_eq!(RowBlocks::shape(&sharded[..]), (6, 4));
        assert!(CsrShard::from_dense(&m).row_slice(4, 7).is_err());
        // An empty slice is an empty source.
        assert_eq!(
            gram_streamed::<CsrShard, _>(&[][..]).unwrap().shape(),
            (0, 0)
        );
        // A shard of another width is rejected by every driver.
        sharded.push(CsrShard::from_dense(&lcg_sparse(2, 5, 2, 92)));
        assert!(gram_streamed(&sharded[..]).is_err());
        assert!(matmul_streamed(&sharded[..], &Matrix::zeros(4, 2)).is_err());
        assert!(matmul_left_streamed_t(&Matrix::zeros(2, 8), &sharded[..]).is_err());
    }

    #[test]
    fn streamed_csr_kernels_reject_bad_sources() {
        // Blocks without stored entries: a CSR block's width and row count
        // live only in its shape, never in a column index, so the checks
        // must read the shape.
        crate::streaming::tests::assert_bad_sources_rejected(vec![
            ("empty wide block", vec![Matrix::zeros(5, 12)]),
            ("empty short source", vec![Matrix::zeros(6, 4)]),
        ]);
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
                let sparse = csr_shards(&dense, shard_rows);
                let streamed = gram_streamed(&sparse[..]).unwrap();
                proptest::prop_assert_eq!(
                    streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "shard_rows={} n={} m={}", shard_rows, n, m
                );
            }
            // The dense sharded path agrees too (three-way equivalence).
            let dense_sharded: Vec<Matrix> =
                csr_shards(&dense, 1 + n / 3).iter().map(CsrShard::to_dense).collect();
            let dense_streamed = gram_streamed(&dense_sharded[..]).unwrap();
            proptest::prop_assert_eq!(
                dense_streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
