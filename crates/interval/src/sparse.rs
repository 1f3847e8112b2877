//! Sparse CSR interval row shards and the sparse streaming interval Gram.
//!
//! A rating-matrix interval enclosure is sparse in a structured way: the
//! unobserved cells are exactly `[0, 0]`, so one sparsity pattern carries
//! both bounds. This module is the sparse counterpart of
//! [`sharded`](crate::sharded):
//!
//! * [`CsrIntervalShard`] — one interval row block as a shared CSR
//!   pattern with `lo`/`hi` payloads (implicit entries are `[0, 0]`), and
//!   [`CsrShardedIntervalMatrix`], an ordered set of such shards;
//! * [`CsrShardSource`] — the lazy out-of-core stream trait, mirroring
//!   [`RowShardSource`](crate::RowShardSource) with CSR shards;
//! * the CSR representation of
//!   [`StreamingIntervalGram`](crate::StreamingIntervalGram)
//!   ([`StreamingIntervalGram::new_csr`](crate::StreamingIntervalGram::new_csr)),
//!   which folds CSR shards through the **sparse** scalar accumulators of
//!   [`ivmf_linalg::sparse`]; flavour dispatch, envelope and radius clamp
//!   are the dense representation's own code.
//!
//! ## Bitwise equality with the dense interval path
//!
//! The interval-specific steps are all entry-wise and zero-preserving —
//! `mid = 0.5·(lo + hi)`, `rad = 0.5·|hi − lo|`, `sum = |mid| + rad` all
//! map `[0, 0]` to `0.0` — so deriving the midpoint–radius payloads over
//! stored entries only yields exactly the nonzero entries of the dense
//! conversion, and the sparse scalar accumulators are bitwise identical
//! to the dense ones (see [`ivmf_linalg::sparse`]). The streamed sparse
//! interval Gram therefore agrees **bit for bit** with the dense
//! representation on the same logical matrix, for every shard layout,
//! thread count, and flavour.

use ivmf_linalg::sparse::{CsrRowBlocks, CsrShard};
use ivmf_linalg::Matrix;

use crate::{IntervalError, IntervalMatrix, Result, StreamingIntervalGram};

/// One interval row block in compressed-sparse-row form: a single
/// sparsity pattern (`row_ptr`/`col_idx`) with aligned `lo`/`hi` value
/// payloads. Implicit (unstored) entries are the point interval `[0, 0]`.
///
/// Like [`IntervalMatrix::from_bounds`], construction checks structure,
/// not bound ordering — improper intervals are representable and flagged
/// by the same downstream checks as the dense type.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrIntervalShard {
    /// Pattern plus the lower-bound payload.
    lo: CsrShard,
    /// Upper-bound payload, aligned with the pattern's stored entries.
    hi: Vec<f64>,
}

impl CsrIntervalShard {
    /// Builds a shard from raw CSR arrays (see
    /// [`CsrShard::new`](ivmf_linalg::CsrShard::new) for the structural
    /// rules); `lo` and `hi` are the stored bounds, entry-aligned.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        lo: Vec<f64>,
        hi: Vec<f64>,
    ) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(IntervalError::Source(format!(
                "CSR interval payloads disagree: {} lo values, {} hi values",
                lo.len(),
                hi.len()
            )));
        }
        let lo = CsrShard::new(rows, cols, row_ptr, col_idx, lo)?;
        Ok(CsrIntervalShard { lo, hi })
    }

    /// Builds a shard from `(row, col, lo, hi)` triplets in any order;
    /// duplicate coordinates are rejected.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        entries: &[(usize, usize, f64, f64)],
    ) -> Result<Self> {
        let lo_triplets: Vec<(usize, usize, f64)> =
            entries.iter().map(|&(r, c, lo, _)| (r, c, lo)).collect();
        let lo = CsrShard::from_triplets(rows, cols, &lo_triplets)?;
        // Re-derive the hi payload in the pattern's (row, col) order.
        let mut sorted: Vec<&(usize, usize, f64, f64)> = entries.iter().collect();
        sorted.sort_by_key(|&&(r, c, _, _)| (r, c));
        let hi = sorted.iter().map(|&&(_, _, _, h)| h).collect();
        Ok(CsrIntervalShard { lo, hi })
    }

    /// Converts a dense interval matrix, storing every entry whose
    /// bounds are not both `±0.0`. The dropped `[0, 0]` entries are
    /// bitwise no-ops in every kernel, so the conversion is invisible in
    /// results.
    pub fn from_dense(m: &IntervalMatrix) -> CsrIntervalShard {
        let (rows, cols) = m.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut lo_vals = Vec::new();
        let mut hi_vals = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let (l, h) = (m.lo()[(i, j)], m.hi()[(i, j)]);
                if l != 0.0 || h != 0.0 {
                    col_idx.push(j);
                    lo_vals.push(l);
                    hi_vals.push(h);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let lo = CsrShard::new(rows, cols, row_ptr, col_idx, lo_vals)
            .expect("pattern built in row-major order is structurally valid");
        CsrIntervalShard { lo, hi: hi_vals }
    }

    /// Materializes the dense interval matrix (the escape hatch for
    /// small fixtures; implicit entries become `[0, 0]`).
    pub fn to_dense(&self) -> IntervalMatrix {
        IntervalMatrix::from_bounds(self.lo.to_dense(), self.hi_shard().to_dense())
            .expect("bounds share the pattern's shape")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.lo.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.lo.cols()
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.lo.shape()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.lo.nnz()
    }

    /// Fraction of cells with a stored entry.
    pub fn density(&self) -> f64 {
        self.lo.density()
    }

    /// Row `i`'s stored `(columns, lo values, hi values)` slices.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64], &[f64]) {
        let (cols, lo) = self.lo.row_entries(i);
        let (s, e) = (self.lo.row_ptr()[i], self.lo.row_ptr()[i + 1]);
        (cols, lo, &self.hi[s..e])
    }

    /// The lower bounds as a scalar CSR shard (shares this shard's
    /// storage layout; borrowed, no copy).
    pub fn lo_shard(&self) -> &CsrShard {
        &self.lo
    }

    /// The stored upper-bound payload, aligned entry for entry with
    /// [`CsrIntervalShard::lo_shard`]'s values (borrowed, no copy).
    pub fn hi_values(&self) -> &[f64] {
        &self.hi
    }

    /// Deconstructs into the pattern-plus-lo shard and the hi payload —
    /// the inverse of assembly, letting consumers recycle the backing
    /// buffers (see [`crate::recycle_csr_interval_shard`]).
    pub fn into_parts(self) -> (CsrShard, Vec<f64>) {
        (self.lo, self.hi)
    }

    /// The upper bounds as a scalar CSR shard (same pattern, hi payload).
    pub fn hi_shard(&self) -> CsrShard {
        self.lo
            .with_values(self.hi.clone())
            .expect("hi payload is entry-aligned by construction")
    }

    /// The midpoint payload as a scalar CSR shard: per stored entry
    /// `0.5 · (lo + hi)`, exactly [`IntervalMatrix::mid`]'s entry-wise
    /// formula, so the densified result is bitwise the dense midpoint
    /// (implicit `[0, 0]` entries map to `0.0`).
    pub fn mid_shard(&self) -> CsrShard {
        let mid = self
            .lo
            .values()
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect();
        self.lo
            .with_values(mid)
            .expect("mid payload is entry-aligned by construction")
    }

    /// The Rump magnitude payload `|mid| + rad` (with
    /// `rad = 0.5 · |hi − lo|`) as a scalar CSR shard — per stored entry
    /// exactly the dense conversion's `mid.map(f64::abs).add(&rad)`
    /// arithmetic, which maps implicit `[0, 0]` entries to `0.0`.
    pub fn mag_shard(&self) -> CsrShard {
        let mag = self
            .lo
            .values()
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| {
                let mid = 0.5 * (l + h);
                let rad = 0.5 * (h - l).abs();
                mid.abs() + rad
            })
            .collect();
        self.lo
            .with_values(mag)
            .expect("magnitude payload is entry-aligned by construction")
    }

    /// The sub-shard of rows `start..end`.
    pub fn row_slice(&self, start: usize, end: usize) -> Result<CsrIntervalShard> {
        let lo = self.lo.row_slice(start, end)?;
        let (s, e) = (self.lo.row_ptr()[start], self.lo.row_ptr()[end]);
        Ok(CsrIntervalShard {
            lo,
            hi: self.hi[s..e].to_vec(),
        })
    }
}

/// A lazily produced stream of CSR interval row shards — the sparse
/// counterpart of [`RowShardSource`](crate::RowShardSource), implemented
/// by the CSR disk loaders in `ivmf-data`. Consumers make one pass per
/// bound product and [`CsrShardSource::reset`] between passes, so a
/// source should make rewinding cheap.
pub trait CsrShardSource {
    /// Total number of rows across all shards.
    fn rows(&self) -> usize;
    /// Number of columns (identical for every shard).
    fn cols(&self) -> usize;
    /// Rewinds the stream to the first shard.
    fn reset(&mut self) -> Result<()>;
    /// Produces the next shard, or `None` after the last one.
    fn next_shard(&mut self) -> Result<Option<CsrIntervalShard>>;
}

/// An ordered set of CSR interval row shards forming one (virtual)
/// sparse interval matrix — the sparse counterpart of
/// [`RowShardedIntervalMatrix`](crate::RowShardedIntervalMatrix). Shard
/// layout is invisible in results; it only bounds peak per-block memory
/// and sets the granularity of
/// [`CsrShardedIntervalMatrix::append_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct CsrShardedIntervalMatrix {
    shards: Vec<CsrIntervalShard>,
    rows: usize,
    cols: usize,
}

impl CsrShardedIntervalMatrix {
    /// Builds a sharded matrix from explicit shards (non-empty list, no
    /// zero-row shards, consistent column counts).
    pub fn from_shards(shards: Vec<CsrIntervalShard>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(IntervalError::Source(
                "a sharded CSR interval matrix needs at least one shard".to_string(),
            ));
        };
        let cols = first.cols();
        let mut rows = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.rows() == 0 {
                return Err(IntervalError::Source(format!("shard {i} has zero rows")));
            }
            if s.cols() != cols {
                return Err(IntervalError::DimensionMismatch {
                    op: "csr_interval_shards",
                    lhs: (rows, cols),
                    rhs: s.shape(),
                });
            }
            rows += s.rows();
        }
        Ok(CsrShardedIntervalMatrix { shards, rows, cols })
    }

    /// Splits a dense interval matrix into CSR shards of at most
    /// `shard_rows` rows.
    pub fn from_dense(m: &IntervalMatrix, shard_rows: usize) -> Result<Self> {
        CsrShardedIntervalMatrix::from_csr(&CsrIntervalShard::from_dense(m), shard_rows)
    }

    /// Splits one big CSR interval shard into shards of at most
    /// `shard_rows` rows.
    pub fn from_csr(m: &CsrIntervalShard, shard_rows: usize) -> Result<Self> {
        if shard_rows == 0 {
            return Err(IntervalError::Source(
                "shard_rows must be at least 1".to_string(),
            ));
        }
        if m.rows() == 0 {
            return Err(IntervalError::Source(
                "cannot shard an empty interval matrix".to_string(),
            ));
        }
        let mut shards = Vec::new();
        let mut start = 0;
        while start < m.rows() {
            let end = (start + shard_rows).min(m.rows());
            shards.push(m.row_slice(start, end)?);
            start = end;
        }
        CsrShardedIntervalMatrix::from_shards(shards)
    }

    /// Appends a new block of rows as its own shard at the bottom.
    pub fn append_rows(&mut self, rows: CsrIntervalShard) -> Result<()> {
        if rows.rows() == 0 {
            return Err(IntervalError::Source(
                "appended shard has zero rows".to_string(),
            ));
        }
        if rows.cols() != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "append_rows",
                lhs: (self.rows, self.cols),
                rhs: rows.shape(),
            });
        }
        self.rows += rows.rows();
        self.shards.push(rows);
        Ok(())
    }

    /// Number of rows across all shards.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the full (virtual) interval matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[CsrIntervalShard] {
        &self.shards
    }

    /// Total stored entries across all shards.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(CsrIntervalShard::nnz).sum()
    }

    /// Fraction of cells with a stored entry.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Materializes the dense interval matrix (row-order concatenation;
    /// the escape hatch for small fixtures).
    pub fn to_dense(&self) -> IntervalMatrix {
        let mut lo = Matrix::zeros(self.rows, self.cols);
        let mut hi = Matrix::zeros(self.rows, self.cols);
        let mut base = 0;
        for s in &self.shards {
            for i in 0..s.rows() {
                let (cols, lo_vals, hi_vals) = s.row_entries(i);
                for ((&j, &l), &h) in cols.iter().zip(lo_vals).zip(hi_vals) {
                    lo[(base + i, j)] = l;
                    hi[(base + i, j)] = h;
                }
            }
            base += s.rows();
        }
        IntervalMatrix::from_bounds(lo, hi).expect("bounds share a shape")
    }

    /// The dense midpoint matrix, assembled from stored entries only
    /// (bitwise identical to [`IntervalMatrix::mid`] of the dense
    /// matrix: the entry-wise formula is zero-preserving).
    pub fn mid(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut base = 0;
        for s in &self.shards {
            let mid = s.mid_shard();
            for i in 0..s.rows() {
                let (cols, vals) = mid.row_entries(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    out[(base + i, j)] = v;
                }
            }
            base += s.rows();
        }
        out
    }

    /// The lower bounds as a scalar CSR row-block stream.
    pub fn lo_blocks(&self) -> SparseBoundBlocks<'_> {
        SparseBoundBlocks {
            shards: &self.shards,
            hi: false,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// The upper bounds as a scalar CSR row-block stream.
    pub fn hi_blocks(&self) -> SparseBoundBlocks<'_> {
        SparseBoundBlocks {
            shards: &self.shards,
            hi: true,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// The streamed interval Gram matrix `M†ᵀ M†` over stored entries
    /// only — same flavour dispatch as the dense path, bitwise identical
    /// to it for every shard layout.
    pub fn interval_gram_streamed(&self) -> Result<IntervalMatrix> {
        let mut acc = StreamingIntervalGram::new_csr(self.rows, self.cols);
        for s in &self.shards {
            acc.push_csr_shard(s)?;
        }
        acc.finish()
    }
}

/// One bound of a sharded CSR interval matrix viewed as a scalar CSR
/// row-block stream (implements
/// [`CsrRowBlocks`](ivmf_linalg::CsrRowBlocks), so the sparse streaming
/// kernels consume it directly).
#[derive(Debug, Clone, Copy)]
pub struct SparseBoundBlocks<'a> {
    shards: &'a [CsrIntervalShard],
    hi: bool,
    rows: usize,
    cols: usize,
}

impl CsrRowBlocks for SparseBoundBlocks<'_> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_csr_block(
        &self,
        f: &mut dyn FnMut(&CsrShard) -> ivmf_linalg::Result<()>,
    ) -> ivmf_linalg::Result<()> {
        for s in self.shards {
            if self.hi {
                f(&s.hi_shard())?;
            } else {
                f(s.lo_shard())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingIntervalGram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Dense interval matrix with ~`nnz_per_row` non-`[0,0]` entries per
    /// row — the dense reference for sparse-vs-dense comparisons.
    fn random_sparse_interval(
        seed: u64,
        rows: usize,
        cols: usize,
        nnz_per_row: usize,
    ) -> IntervalMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lo = Matrix::zeros(rows, cols);
        let mut hi = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen_range(0..cols.max(1)) < nnz_per_row {
                    let l = rng.gen_range(-2.0..2.0);
                    lo[(i, j)] = l;
                    hi[(i, j)] = l + rng.gen_range(0.0..1.0);
                }
            }
        }
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }

    fn assert_bitwise(a: &IntervalMatrix, b: &IntervalMatrix, context: &str) {
        assert_eq!(a.shape(), b.shape(), "{context}: shape");
        for (bound, (x, y)) in [("lo", (a.lo(), b.lo())), ("hi", (a.hi(), b.hi()))] {
            for (i, (p, q)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "{context}: {bound} entry {i} differs ({p} vs {q})"
                );
            }
        }
    }

    #[test]
    fn csr_interval_round_trip_and_payload_shards() {
        let m = random_sparse_interval(1, 23, 9, 3);
        let csr = CsrIntervalShard::from_dense(&m);
        assert_eq!(csr.shape(), (23, 9));
        assert!(csr.density() < 1.0);
        assert_eq!(csr.to_dense(), m);
        // Bound shards densify to the dense bounds.
        assert_eq!(csr.lo_shard().to_dense(), *m.lo());
        assert_eq!(csr.hi_shard().to_dense(), *m.hi());
        // Derived payloads are bitwise the dense conversions.
        let mid = csr.mid_shard().to_dense();
        for (a, b) in mid.as_slice().iter().zip(m.mid().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "mid payload");
        }
        let mag = csr.mag_shard().to_dense();
        let rad_dense = m.spans().map(|s| 0.5 * s.abs());
        let mag_dense = m.mid().map(f64::abs).add(&rad_dense).unwrap();
        for (a, b) in mag.as_slice().iter().zip(mag_dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "mag payload");
        }
    }

    #[test]
    fn csr_interval_construction_validates() {
        assert!(CsrIntervalShard::new(1, 3, vec![0, 1], vec![0], vec![1.0], vec![]).is_err());
        assert!(CsrIntervalShard::new(1, 3, vec![0, 1], vec![5], vec![1.0], vec![2.0]).is_err());
        let t = [(0usize, 1usize, -1.0, 1.0), (1, 0, 0.5, 0.75)];
        let csr = CsrIntervalShard::from_triplets(2, 3, &t).unwrap();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row_entries(0), (&[1usize][..], &[-1.0][..], &[1.0][..]));
        assert!(
            CsrIntervalShard::from_triplets(2, 3, &[(0, 0, 1.0, 2.0), (0, 0, 1.0, 2.0)]).is_err()
        );
    }

    #[test]
    fn csr_interval_sharding_and_append() {
        let m = random_sparse_interval(2, 21, 6, 2);
        let sharded = CsrShardedIntervalMatrix::from_dense(&m, 5).unwrap();
        assert_eq!(sharded.num_shards(), 5);
        assert_eq!(sharded.shape(), (21, 6));
        assert_eq!(sharded.to_dense(), m);
        for (a, b) in sharded.mid().as_slice().iter().zip(m.mid().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sharded mid");
        }
        assert!(CsrShardedIntervalMatrix::from_dense(&m, 0).is_err());
        assert!(CsrShardedIntervalMatrix::from_shards(vec![]).is_err());

        let mut appended = sharded.clone();
        let extra = random_sparse_interval(3, 4, 6, 2);
        appended
            .append_rows(CsrIntervalShard::from_dense(&extra))
            .unwrap();
        assert_eq!(appended.shape(), (25, 6));
        let bad = random_sparse_interval(4, 2, 5, 2);
        assert!(appended
            .append_rows(CsrIntervalShard::from_dense(&bad))
            .is_err());
    }

    #[test]
    fn sparse_gram_exact_flavour_matches_dense_bitwise() {
        // Small shapes stay below MR_MIN_WORK → exact four-product
        // envelope on both paths.
        let m = random_sparse_interval(5, 150, 8, 3);
        let mut dense_acc = StreamingIntervalGram::new(150, 8);
        dense_acc.push_shard(&m).unwrap();
        let reference = dense_acc.finish().unwrap();
        for shard_rows in [1usize, 7, 64, 150] {
            let sharded = CsrShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            let mut acc = StreamingIntervalGram::new_csr(150, 8);
            assert!(!acc.is_mid_rad());
            for s in sharded.shards() {
                acc.push_csr_shard(s).unwrap();
            }
            assert_eq!(acc.rows_seen(), 150);
            assert_bitwise(
                &acc.finish().unwrap(),
                &reference,
                &format!("exact shard_rows={shard_rows}"),
            );
            assert_bitwise(
                &sharded.interval_gram_streamed().unwrap(),
                &reference,
                &format!("driver shard_rows={shard_rows}"),
            );
        }
    }

    #[test]
    fn sparse_gram_mr_flavour_matches_dense_bitwise() {
        // 170×70 is above MR_MIN_WORK (70·170·70 ≥ 64³) → midpoint–radius,
        // unless a concurrent test pins IVMF_EXACT_INTERVAL — hence the
        // shared lock.
        let _guard = crate::test_env::EXACT_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let m = random_sparse_interval(6, 170, 70, 5);
        assert!(StreamingIntervalGram::new_csr(170, 70).is_mid_rad());
        let mut dense_acc = StreamingIntervalGram::new(170, 70);
        dense_acc.push_shard(&m).unwrap();
        let reference = dense_acc.finish().unwrap();
        for shard_rows in [1usize, 13, 128, 170] {
            let sharded = CsrShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            assert_bitwise(
                &sharded.interval_gram_streamed().unwrap(),
                &reference,
                &format!("mr shard_rows={shard_rows}"),
            );
        }
    }

    #[test]
    fn sparse_gram_respects_exact_interval_pin() {
        let _guard = crate::test_env::EXACT_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let m = random_sparse_interval(7, 170, 70, 4);
        std::env::set_var(crate::EXACT_INTERVAL_ENV, "1");
        let pinned = StreamingIntervalGram::new_csr(170, 70);
        let sharded = CsrShardedIntervalMatrix::from_dense(&m, 33).unwrap();
        let sparse = sharded.interval_gram_streamed();
        let mut dense_acc = StreamingIntervalGram::new(170, 70);
        dense_acc.push_shard(&m).unwrap();
        let reference = dense_acc.finish();
        std::env::remove_var(crate::EXACT_INTERVAL_ENV);
        assert!(!pinned.is_mid_rad());
        assert_bitwise(&sparse.unwrap(), &reference.unwrap(), "pinned exact");
    }

    #[test]
    fn sparse_gram_is_incremental_bitwise() {
        let head = random_sparse_interval(8, 140, 10, 3);
        let tail = random_sparse_interval(9, 37, 10, 3);
        let total_rows = 177;

        let mut acc = StreamingIntervalGram::new_csr(total_rows, 10);
        acc.push_csr_shard(&CsrIntervalShard::from_dense(&head))
            .unwrap();
        let _snapshot = acc.finish().unwrap(); // non-consuming
        acc.push_csr_shard(&CsrIntervalShard::from_dense(&tail))
            .unwrap();
        assert_eq!(acc.rows_seen(), total_rows);

        let mut dense_acc = StreamingIntervalGram::new(total_rows, 10);
        dense_acc.push_shard(&head).unwrap();
        dense_acc.push_shard(&tail).unwrap();
        assert_bitwise(
            &acc.finish().unwrap(),
            &dense_acc.finish().unwrap(),
            "incremental vs dense",
        );
        assert!(acc
            .push_csr_shard(&CsrIntervalShard::from_dense(&random_sparse_interval(
                10, 3, 5, 2
            )))
            .is_err());
    }

    #[test]
    fn either_representation_accepts_both_shard_types_bitwise() {
        // Both flavours: mixed dense/CSR pushes into either representation
        // convert the foreign shard and keep every bit; absorbing a unit
        // of the other representation is a typed error.
        let head = random_sparse_interval(12, 140, 10, 3);
        let tail = random_sparse_interval(13, 37, 10, 3);
        for mid_rad in [false, true] {
            let mut dense = StreamingIntervalGram::with_flavour(10, mid_rad);
            dense.push_shard(&head).unwrap();
            dense
                .push_csr_shard(&CsrIntervalShard::from_dense(&tail))
                .unwrap();
            let mut csr = StreamingIntervalGram::with_flavour_csr(10, mid_rad);
            csr.push_shard(&head).unwrap();
            csr.push_csr_shard(&CsrIntervalShard::from_dense(&tail))
                .unwrap();
            assert!(csr.is_csr() && !dense.is_csr());
            assert_eq!(csr.rows_seen(), 177);
            assert_bitwise(
                &csr.finish().unwrap(),
                &dense.finish().unwrap(),
                &format!("mixed pushes (mid_rad = {mid_rad})"),
            );
            let err = StreamingIntervalGram::with_flavour(10, mid_rad)
                .absorb_unit(StreamingIntervalGram::with_flavour_csr(10, mid_rad))
                .unwrap_err();
            assert!(err.to_string().contains("representation"), "{err}");
        }
    }

    #[test]
    fn sparse_bound_blocks_stream_the_bounds() {
        let m = random_sparse_interval(11, 40, 5, 2);
        let sharded = CsrShardedIntervalMatrix::from_dense(&m, 9).unwrap();
        let rhs = Matrix::identity(5);
        let lo = ivmf_linalg::matmul_streamed_csr(&sharded.lo_blocks(), &rhs).unwrap();
        assert_eq!(lo, *m.lo());
        let hi = ivmf_linalg::matmul_streamed_csr(&sharded.hi_blocks(), &rhs).unwrap();
        assert_eq!(hi, *m.hi());
        assert_eq!(CsrRowBlocks::shape(&sharded.lo_blocks()), (40, 5));
    }

    #[test]
    fn degenerate_sparse_intervals_match_dense() {
        // All-[0,0] matrix.
        let zero =
            IntervalMatrix::from_bounds(Matrix::zeros(140, 6), Matrix::zeros(140, 6)).unwrap();
        let zcsr = CsrIntervalShard::from_dense(&zero);
        assert_eq!(zcsr.nnz(), 0);
        let mut dense_acc = StreamingIntervalGram::new(140, 6);
        dense_acc.push_shard(&zero).unwrap();
        let mut acc = StreamingIntervalGram::new_csr(140, 6);
        acc.push_csr_shard(&zcsr).unwrap();
        assert_bitwise(
            &acc.finish().unwrap(),
            &dense_acc.finish().unwrap(),
            "all-zero gram",
        );
        // Single stored interval.
        let single = CsrIntervalShard::from_triplets(140, 6, &[(77, 2, -1.5, 2.5)]).unwrap();
        let dense_single = single.to_dense();
        let mut dense_acc = StreamingIntervalGram::new(140, 6);
        dense_acc.push_shard(&dense_single).unwrap();
        let mut acc = StreamingIntervalGram::new_csr(140, 6);
        acc.push_csr_shard(&single).unwrap();
        assert_bitwise(
            &acc.finish().unwrap(),
            &dense_acc.finish().unwrap(),
            "single-entry gram",
        );
    }

    #[test]
    fn sparse_interval_gram_state_round_trips_bitwise() {
        // Exact-flavour small case and mid-rad large case, restored
        // mid-stream and continued — bitwise the uninterrupted fold.
        for (total, cols, label) in [(40usize, 6usize, "exact"), (600, 40, "midrad")] {
            let head = random_sparse_interval(51, total - 10, cols, 3);
            let tail = random_sparse_interval(52, 10, cols, 3);
            let (head_csr, tail_csr) = (
                CsrIntervalShard::from_dense(&head),
                CsrIntervalShard::from_dense(&tail),
            );
            let mut acc = StreamingIntervalGram::new_csr(total, cols);
            acc.push_csr_shard(&head_csr).unwrap();
            let mut buf = Vec::new();
            acc.write_state(&mut buf).unwrap();
            let mut restored =
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
            assert_eq!(restored.is_mid_rad(), acc.is_mid_rad(), "{label}");
            acc.push_csr_shard(&tail_csr).unwrap();
            restored.push_csr_shard(&tail_csr).unwrap();
            assert_bitwise(
                &restored.finish().unwrap(),
                &acc.finish().unwrap(),
                &format!("continued sparse interval gram ({label})"),
            );
            // Corruption: dense and sparse states are not interchangeable.
            let mut spliced = b"intervalgram".to_vec();
            spliced.extend_from_slice(&buf["sparseintervalgram".len()..]);
            assert!(
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(&spliced[..]))
                    .is_err()
            );
        }
    }
}
