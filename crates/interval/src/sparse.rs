//! Sparse CSR interval row shards.
//!
//! A rating-matrix interval enclosure is sparse in a structured way: the
//! unobserved cells are exactly `[0, 0]`, so one sparsity pattern carries
//! both bounds. This module holds the CSR representation of
//! [`IntervalShard`]:
//!
//! * [`CsrIntervalShard`] — one interval row block as a shared CSR
//!   pattern with `lo`/`hi` payloads (implicit entries are `[0, 0]`).
//!   Its bounds stream as [`CsrRows`] views of the one pattern, borrowed:
//!   the upper bound reads the hi payload in place, and the
//!   midpoint–radius payloads are formed per stored entry as the stream
//!   buffers the rows, never materialized as shards of their own; and
//!   [`CsrShardedIntervalMatrix`], an ordered set of such shards;
//! * [`CsrShardSource`] — the lazy out-of-core stream trait of CSR shards;
//! * the CSR representation of
//!   [`StreamingIntervalGram`](crate::StreamingIntervalGram)
//!   ([`StreamingIntervalGram::new_csr`](crate::StreamingIntervalGram::new_csr)),
//!   which folds CSR shards through the scalar accumulators over
//!   [`CsrShard`] blocks (the sparse kernels of [`ivmf_linalg::sparse`]);
//!   flavour dispatch, envelope and radius clamp are the dense
//!   representation's own code.
//!
//! ## Bitwise equality with the dense interval path
//!
//! The interval-specific steps are all entry-wise and zero-preserving —
//! `mid = 0.5·(lo + hi)`, `rad = 0.5·|hi − lo|`, `sum = |mid| + rad` all
//! map `[0, 0]` to `0.0` — so forming the midpoint–radius payloads per
//! stored entry yields exactly the nonzero entries of the dense
//! conversion, and the sparse scalar accumulators are bitwise identical
//! to the dense ones (see [`ivmf_linalg::sparse`]). The streamed sparse
//! interval Gram therefore agrees **bit for bit** with the dense
//! representation on the same logical matrix, for every shard layout,
//! thread count, and flavour.

use std::borrow::Cow;

use ivmf_linalg::{CsrRows, CsrShard, RowBlock};

use crate::sharded::{mag, mid, valid_input};
use crate::{IntervalError, IntervalMatrix, IntervalShard, Result, ShardedIntervalMatrix};

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
        IntervalMatrix::from_bounds(self.lo.to_dense(), self.hi_rows().to_dense())
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
    /// buffers (see [`IntervalShard::recycle`]).
    pub fn into_parts(self) -> (CsrShard, Vec<f64>) {
        (self.lo, self.hi)
    }

    /// The upper bounds as a scalar CSR view: the hi payload read against
    /// the shared pattern in place.
    pub fn hi_rows(&self) -> CsrRows<'_> {
        CsrRows::new(self.lo.pattern(), &self.hi)
            .expect("hi payload is entry-aligned by construction")
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

impl IntervalShard for CsrIntervalShard {
    const CSR: bool = true;
    type Block = CsrShard;
    fn rows(&self) -> usize {
        CsrIntervalShard::rows(self)
    }
    fn cols(&self) -> usize {
        CsrIntervalShard::cols(self)
    }
    fn row_slice(&self, start: usize, end: usize) -> Result<Self> {
        CsrIntervalShard::row_slice(self, start, end)
    }
    fn as_dense(&self) -> Cow<'_, IntervalMatrix> {
        Cow::Owned(self.to_dense())
    }
    fn as_csr(&self) -> Cow<'_, CsrIntervalShard> {
        Cow::Borrowed(self)
    }
    fn adopt<R: IntervalShard>(rows: &R) -> Option<Cow<'_, Self>> {
        Some(rows.as_csr())
    }
    fn first_invalid_cell(&self) -> Option<(usize, usize, f64, f64)> {
        (0..self.rows()).find_map(|i| {
            let (cols, lo, hi) = self.row_entries(i);
            let mut cells = cols.iter().zip(lo.iter().zip(hi));
            cells
                .find(|&(_, (&l, &h))| !valid_input(l, h))
                .map(|(&j, (&l, &h))| (i, j, l, h))
        })
    }
    fn content_words(&self, mut lo: impl FnMut(u64), mut hi: impl FnMut(u64)) {
        for i in 0..self.rows() {
            let (cols, lo_vals, hi_vals) = self.row_entries(i);
            lo(cols.len() as u64);
            hi(cols.len() as u64);
            for ((&c, &l), &h) in cols.iter().zip(lo_vals).zip(hi_vals) {
                lo(c as u64);
                lo(l.to_bits());
                hi(c as u64);
                hi(h.to_bits());
            }
        }
    }
    fn bound(&self, hi: bool) -> CsrRows<'_> {
        if hi {
            self.hi_rows()
        } else {
            self.lo.view()
        }
    }
    fn with_mid_rad<R>(&self, f: impl FnOnce(CsrRows<'_>, CsrRows<'_>) -> R) -> R {
        let formed = |value| {
            CsrRows::formed(self.lo.pattern(), self.lo.values(), &self.hi, value)
                .expect("bound payloads are entry-aligned by construction")
        };
        f(formed(mid), formed(mag))
    }
    fn recycle(self) {
        let (lo, hi) = self.into_parts();
        lo.recycle();
        ivmf_linalg::pool::recycle_f64(hi);
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

/// A sharded matrix of CSR interval shards.
pub type CsrShardedIntervalMatrix = ShardedIntervalMatrix<CsrIntervalShard>;

impl CsrShardedIntervalMatrix {
    /// Splits one big CSR interval shard into shards of at most
    /// `shard_rows` rows.
    pub fn from_csr(m: &CsrIntervalShard, shard_rows: usize) -> Result<Self> {
        Self::split(m, shard_rows)
    }

    /// Total stored entries across all shards.
    pub fn nnz(&self) -> usize {
        self.shards().iter().map(CsrIntervalShard::nnz).sum()
    }

    /// Fraction of cells with a stored entry.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_env::assert_bitwise;
    use crate::StreamingIntervalGram;
    use ivmf_linalg::{Matrix, RowBlocks};
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

    #[test]
    fn csr_interval_round_trip_and_payload_shards() {
        let m = random_sparse_interval(1, 23, 9, 3);
        let csr = CsrIntervalShard::from_dense(&m);
        assert_eq!(csr.shape(), (23, 9));
        assert!(csr.density() < 1.0);
        assert_eq!(csr.to_dense(), m);
        // Bound views densify to the dense bounds.
        assert_eq!(csr.bound(false).to_dense(), *m.lo());
        assert_eq!(csr.bound(true).to_dense(), *m.hi());
        // Derived payloads are bitwise the dense conversions.
        let (mid, mag) = csr.with_mid_rad(|mid, mag| (mid.to_dense(), mag.to_dense()));
        for (a, b) in mid.as_slice().iter().zip(m.mid().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "mid payload");
        }
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
        dense_acc.push(&m).unwrap();
        let reference = dense_acc.finish().unwrap();
        for shard_rows in [1usize, 7, 64, 150] {
            let sharded = CsrShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            let mut acc = StreamingIntervalGram::new_csr(150, 8);
            assert!(!acc.is_mid_rad());
            for s in sharded.shards() {
                acc.push(s).unwrap();
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
        // 170×70 is above MR_MIN_WORK (70·170·70 ≥ 64³) → midpoint–radius.
        let m = random_sparse_interval(6, 170, 70, 5);
        assert!(StreamingIntervalGram::new_csr(170, 70).is_mid_rad());
        let mut dense_acc = StreamingIntervalGram::new(170, 70);
        dense_acc.push(&m).unwrap();
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
        let m = random_sparse_interval(7, 170, 70, 4);
        let (pinned, sparse, reference) = crate::test_env::exact().scope(|| {
            let pinned = StreamingIntervalGram::new_csr(170, 70);
            let sharded = CsrShardedIntervalMatrix::from_dense(&m, 33).unwrap();
            let sparse = sharded.interval_gram_streamed();
            let mut dense_acc = StreamingIntervalGram::new(170, 70);
            dense_acc.push(&m).unwrap();
            (pinned, sparse, dense_acc.finish())
        });
        assert!(!pinned.is_mid_rad());
        assert_bitwise(&sparse.unwrap(), &reference.unwrap(), "pinned exact");
    }

    #[test]
    fn sparse_gram_is_incremental_bitwise() {
        let head = random_sparse_interval(8, 140, 10, 3);
        let tail = random_sparse_interval(9, 37, 10, 3);
        let total_rows = 177;

        let mut acc = StreamingIntervalGram::new_csr(total_rows, 10);
        acc.push(&CsrIntervalShard::from_dense(&head)).unwrap();
        let _snapshot = acc.finish().unwrap(); // non-consuming
        acc.push(&CsrIntervalShard::from_dense(&tail)).unwrap();
        assert_eq!(acc.rows_seen(), total_rows);

        let mut dense_acc = StreamingIntervalGram::new(total_rows, 10);
        dense_acc.push(&head).unwrap();
        dense_acc.push(&tail).unwrap();
        assert_bitwise(
            &acc.finish().unwrap(),
            &dense_acc.finish().unwrap(),
            "incremental vs dense",
        );
        assert!(acc
            .push(&CsrIntervalShard::from_dense(&random_sparse_interval(
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
            dense.push(&head).unwrap();
            dense.push(&CsrIntervalShard::from_dense(&tail)).unwrap();
            let mut csr = StreamingIntervalGram::with_flavour_csr(10, mid_rad);
            csr.push(&head).unwrap();
            csr.push(&CsrIntervalShard::from_dense(&tail)).unwrap();
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
        let lo = ivmf_linalg::matmul_streamed(&sharded.lo_blocks(), &rhs).unwrap();
        assert_eq!(lo, *m.lo());
        let hi = ivmf_linalg::matmul_streamed(&sharded.hi_blocks(), &rhs).unwrap();
        assert_eq!(hi, *m.hi());
        assert_eq!(RowBlocks::shape(&sharded.lo_blocks()), (40, 5));
    }

    #[test]
    fn degenerate_sparse_intervals_match_dense() {
        // All-[0,0] matrix.
        let zero =
            IntervalMatrix::from_bounds(Matrix::zeros(140, 6), Matrix::zeros(140, 6)).unwrap();
        let zcsr = CsrIntervalShard::from_dense(&zero);
        assert_eq!(zcsr.nnz(), 0);
        let mut dense_acc = StreamingIntervalGram::new(140, 6);
        dense_acc.push(&zero).unwrap();
        let mut acc = StreamingIntervalGram::new_csr(140, 6);
        acc.push(&zcsr).unwrap();
        assert_bitwise(
            &acc.finish().unwrap(),
            &dense_acc.finish().unwrap(),
            "all-zero gram",
        );
        // Single stored interval.
        let single = CsrIntervalShard::from_triplets(140, 6, &[(77, 2, -1.5, 2.5)]).unwrap();
        let dense_single = single.to_dense();
        let mut dense_acc = StreamingIntervalGram::new(140, 6);
        dense_acc.push(&dense_single).unwrap();
        let mut acc = StreamingIntervalGram::new_csr(140, 6);
        acc.push(&single).unwrap();
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
            acc.push(&head_csr).unwrap();
            let mut buf = Vec::new();
            acc.write_state(&mut buf).unwrap();
            let mut restored =
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
            assert_eq!(restored.is_mid_rad(), acc.is_mid_rad(), "{label}");
            acc.push(&tail_csr).unwrap();
            restored.push(&tail_csr).unwrap();
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
