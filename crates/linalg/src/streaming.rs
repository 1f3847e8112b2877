//! Row-sharded storage and chunk-realigned streaming kernels.
//!
//! Every `O(nm²)` product in this workspace — the Gram matrices behind
//! ISVD2–4, the cross products of the exact interval Gram, the factor
//! recovery products — is algebraically a **sum over row blocks**:
//! `AᵀA = Σᵢ AᵢᵀAᵢ` for any partition of `A` into row blocks `Aᵢ`. That
//! makes the row dimension the natural seam for sharding (bounded peak
//! memory), out-of-core streaming (fold one shard at a time) and
//! incremental updates (new rows only *add* contributions).
//!
//! Floating-point addition is not associative, so naively folding per-shard
//! contributions would make results depend on where the shard boundaries
//! fall. The accumulators here avoid that by **re-aligning all arithmetic
//! to fixed global chunk boundaries** of [`STREAM_CHUNK_ROWS`] rows:
//! incoming blocks are buffered, full chunks (always starting at global row
//! indices `0, C, 2C, …`) are folded with the packed kernels, and the
//! remainder stays buffered until more rows arrive or the accumulator is
//! finished. Consequences:
//!
//! * the result is **bitwise identical for every shard layout** (one dense
//!   block, 1-row shards, anything in between) — the chunk sequence, and
//!   hence every intermediate rounding, is the same;
//! * it is bitwise identical for every `IVMF_THREADS` count — chunks are
//!   scheduled across the [`ivmf_par`] pool (several pending chunks run as
//!   parallel jobs, a lone chunk parallelizes inside the packed kernel),
//!   but the fold order is fixed and the kernels themselves are
//!   thread-count-deterministic;
//! * appending rows later and continuing the fold performs **exactly** the
//!   operation sequence of a cold recompute over the extended matrix, so
//!   incremental results are bitwise equal to recomputation (the
//!   decomposition pipeline's `append_rows` relies on this).
//!
//! For sources with at most [`STREAM_CHUNK_ROWS`] rows there is a single
//! chunk containing the whole matrix, so the streamed results coincide
//! bitwise with the one-shot kernels ([`Matrix::gram`], [`Matrix::matmul`])
//! on the same data.
//!
//! The re-alignment is written once, for the dense accumulators here, their
//! CSR counterparts in [`sparse`](crate::sparse) and all four streamed
//! products: a private core cuts each pushed block into pieces of at most
//! a few chunks, hands the full chunks to the caller's chunk kernel and
//! keeps the tail. The two-level fold below is likewise one piece of code
//! for all four Gram-type accumulators; each of them only adds a row
//! buffer, a chunk kernel and a state header tag.
//!
//! ## Two-level fold and the unit merge
//!
//! The Gram accumulators fold at **two levels**: chunk results fold
//! left-to-right into a *group* partial, and at every
//! [`MERGE_GROUP_CHUNKS`]-chunk boundary (= [`GROUP_ROWS`] rows) the group
//! folds into the *master* partial. [`GramAccumulator::finish`] combines
//! `master ⊕ (group ⊕ tail)` in that fixed order. For sources within one
//! group the two levels degenerate to the single flat fold, so results are
//! unchanged there; beyond one group the fold order is still a fixed
//! function of the global row index alone — every bitwise guarantee above
//! is preserved.
//!
//! The payoff is [`GramAccumulator::absorb_unit`]: a *unit* — the rows of
//! exactly one group (the final unit may be shorter) — can be folded by a
//! separate, fresh accumulator and absorbed back in unit order,
//! reproducing the single-accumulator state **bit for bit**: the unit's
//! chunks, their order and its seal point coincide with the group the
//! single accumulator would have sealed. The decomposition pipeline's
//! interval-Gram stage folds several units concurrently on this merge.

use crate::fold::{add_assign, realign, ChunkKernel, Partials, RowBuffer, StreamAccumulator};
use crate::pending::PendingRows;
use crate::{LinalgError, Matrix, Result};
use std::borrow::Cow;

/// Number of rows per internal accumulation chunk. Part of the arithmetic
/// contract (chunk boundaries determine rounding order), so it is a fixed
/// constant rather than an environment knob — shard sizes and thread
/// counts are free to vary precisely because this is not.
pub const STREAM_CHUNK_ROWS: usize = 128;

/// Number of chunks per merge group: chunk partials fold into a group
/// partial, which folds into the master partial at every group boundary
/// (see the [module docs](self)). Like [`STREAM_CHUNK_ROWS`] this is part
/// of the arithmetic contract — group boundaries determine rounding order
/// — so it is a fixed constant, never a knob.
pub const MERGE_GROUP_CHUNKS: usize = 64;

/// Rows per merge group (`MERGE_GROUP_CHUNKS × STREAM_CHUNK_ROWS`): the
/// granularity of the units that fold concurrently and merge with
/// [`GramAccumulator::absorb_unit`].
pub const GROUP_ROWS: usize = MERGE_GROUP_CHUNKS * STREAM_CHUNK_ROWS;

/// A matrix presented as an ordered sequence of row blocks.
///
/// The common trait behind the dense [`Matrix`] (one block: itself), the
/// in-memory [`RowShardedMatrix`], and any lazy loader that materializes
/// one block at a time. Consumers — the streaming accumulators and the
/// decomposition pipeline — only ever fold blocks in order, so a source
/// never needs to hold more than one block in memory.
pub trait RowBlocks {
    /// Total number of rows across all blocks.
    fn rows(&self) -> usize;
    /// Number of columns (identical for every block).
    fn cols(&self) -> usize;
    /// `(rows, cols)` of the full (virtual) matrix.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    /// Calls `f` once per row block, in row order.
    fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()>;
}

impl RowBlocks for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
        f(self)
    }
}

/// An ordered set of row-block shards forming one (virtual) matrix.
///
/// Shards may have any positive number of rows and need not be equally
/// sized; all share the same column count. Because every streaming kernel
/// re-aligns its arithmetic to global chunk boundaries, the shard layout
/// is *invisible* in results — it only bounds peak memory per block and
/// determines the granularity of [`RowShardedMatrix::append_shard`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowShardedMatrix {
    shards: Vec<Matrix>,
    rows: usize,
    cols: usize,
}

impl RowShardedMatrix {
    /// Builds a sharded matrix from explicit row blocks.
    ///
    /// Returns an error when the list is empty, any shard has zero rows,
    /// or the column counts disagree.
    pub fn from_shards(shards: Vec<Matrix>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(LinalgError::InvalidArgument(
                "a sharded matrix needs at least one shard".to_string(),
            ));
        };
        let cols = first.cols();
        let mut rows = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.rows() == 0 {
                return Err(LinalgError::InvalidArgument(format!(
                    "shard {i} has zero rows"
                )));
            }
            if s.cols() != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "shard {i} has {} columns, expected {cols}",
                    s.cols()
                )));
            }
            rows += s.rows();
        }
        Ok(RowShardedMatrix { shards, rows, cols })
    }

    /// Splits a dense matrix into shards of at most `shard_rows` rows
    /// (the last shard takes the remainder).
    pub fn from_matrix(m: &Matrix, shard_rows: usize) -> Result<Self> {
        if shard_rows == 0 {
            return Err(LinalgError::InvalidArgument(
                "shard_rows must be at least 1".to_string(),
            ));
        }
        if m.rows() == 0 {
            return Err(LinalgError::InvalidArgument(
                "cannot shard an empty matrix".to_string(),
            ));
        }
        let mut shards = Vec::new();
        let mut start = 0;
        while start < m.rows() {
            let end = (start + shard_rows).min(m.rows());
            let data = m.as_slice()[start * m.cols()..end * m.cols()].to_vec();
            shards.push(Matrix::from_vec(end - start, m.cols(), data)?);
            start = end;
        }
        RowShardedMatrix::from_shards(shards)
    }

    /// Appends a new row-block shard at the bottom.
    pub fn append_shard(&mut self, shard: Matrix) -> Result<()> {
        if shard.rows() == 0 {
            return Err(LinalgError::InvalidArgument(
                "appended shard has zero rows".to_string(),
            ));
        }
        if shard.cols() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "append_shard",
                lhs: (self.rows, self.cols),
                rhs: shard.shape(),
            });
        }
        self.rows += shard.rows();
        self.shards.push(shard);
        Ok(())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[Matrix] {
        &self.shards
    }

    /// Materializes the dense matrix (row-order concatenation).
    pub fn to_dense(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for s in &self.shards {
            data.extend_from_slice(s.as_slice());
        }
        Matrix::from_vec(self.rows, self.cols, data).expect("shard shapes are validated")
    }
}

impl RowBlocks for RowShardedMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
        for s in &self.shards {
            f(s)?;
        }
        Ok(())
    }
}

/// Runs `kernel(i, lone)` on full chunks `0..full` and returns the results
/// in chunk order. A lone chunk (`lone == true`) parallelizes inside its
/// packed kernel; several chunks run as jobs across the [`ivmf_par`] pool,
/// each kernel inline. Identical results either way — the kernels are
/// thread-count-deterministic and the caller folds in chunk order.
fn map_chunks<T: Send>(full: usize, kernel: impl Fn(usize, bool) -> T + Sync) -> Vec<T> {
    if full == 1 {
        vec![kernel(0, true)]
    } else {
        ivmf_par::par_map(full, ivmf_par::configured_threads(), |i| kernel(i, false))
    }
}

/// Chunk kernel of [`GramAccumulator`]: the packed SYRK per chunk.
#[derive(Debug, Clone)]
pub enum DenseGram {}

impl ChunkKernel for DenseGram {
    type Rows = PendingRows;
    const TAG: &'static str = "gram";

    fn fold_chunks(rows: &PendingRows, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        let grams = map_chunks(full, |i, lone| {
            let c = rows.chunk(i);
            let g = if lone { c.gram() } else { c.gram_impl(1) };
            crate::pool::recycle_f64(c.into_vec());
            g
        });
        for g in grams {
            sum.fold(Cow::Owned(g));
        }
        Ok(())
    }

    fn tail(rem: Matrix) -> Result<Matrix> {
        let g = rem.gram();
        crate::pool::recycle_f64(rem.into_vec());
        Ok(g)
    }
}

/// Chunk kernel of [`CrossGramAccumulator`]: the packed `AᵀB` per chunk
/// pair.
#[derive(Debug, Clone)]
pub enum DenseCross {}

impl ChunkKernel for DenseCross {
    type Rows = (PendingRows, PendingRows);
    const TAG: &'static str = "crossgram";

    fn fold_chunks(rows: &Self::Rows, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        let products = map_chunks(full, |i, lone| {
            let (ca, cb) = rows.chunk(i);
            let p = if lone {
                ca.matmul_tn(&cb)
            } else {
                ca.matmul_tn_impl(&cb, 1)
            };
            crate::pool::recycle_f64(ca.into_vec());
            crate::pool::recycle_f64(cb.into_vec());
            p
        });
        for p in products {
            sum.fold(Cow::Owned(p?));
        }
        Ok(())
    }

    fn tail((ra, rb): (Matrix, Matrix)) -> Result<Matrix> {
        let p = ra.matmul_tn(&rb);
        crate::pool::recycle_f64(ra.into_vec());
        crate::pool::recycle_f64(rb.into_vec());
        p
    }
}

/// Streaming accumulator for the Gram matrix `AᵀA` over a row-block
/// stream.
///
/// Push blocks in row order with [`GramAccumulator::push_block`]; read the
/// Gram of everything seen so far with [`GramAccumulator::finish`]
/// (non-consuming, so more rows can be appended afterwards — the
/// incremental-update path of the decomposition pipeline). See the
/// [module docs](self) for the bitwise guarantees.
pub type GramAccumulator = StreamAccumulator<DenseGram>;

impl GramAccumulator {
    /// An empty accumulator for a stream with `cols` columns.
    pub fn new(cols: usize) -> Self {
        StreamAccumulator::empty(PendingRows::new(cols))
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.pending.cols
    }

    /// Feeds the next row block (row order across calls).
    pub fn push_block(&mut self, block: &Matrix) -> Result<()> {
        if block.cols() != self.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "gram_accumulate",
                lhs: (self.rows_seen(), self.cols()),
                rhs: block.shape(),
            });
        }
        self.push(block)
    }

    /// The Gram matrix of every row seen so far (non-consuming; see
    /// [`StreamAccumulator::try_finish`]).
    pub fn finish(&self) -> Matrix {
        self.try_finish().expect("the Gram kernel cannot fail")
    }
}

/// Streaming accumulator for the cross product `AᵀB` over a pair of
/// row-block streams fed in lockstep (the `loᵀ·hi` term of the exact
/// interval Gram). Same chunk re-alignment, two-level fold, unit merge
/// and bitwise guarantees as [`GramAccumulator`].
pub type CrossGramAccumulator = StreamAccumulator<DenseCross>;

impl CrossGramAccumulator {
    /// An empty accumulator for streams with `a_cols` / `b_cols` columns.
    pub fn new(a_cols: usize, b_cols: usize) -> Self {
        StreamAccumulator::empty((PendingRows::new(a_cols), PendingRows::new(b_cols)))
    }

    /// Column count of the first stream (rows of the `AᵀB` output).
    pub fn a_cols(&self) -> usize {
        self.pending.0.cols
    }

    /// Column count of the second stream (columns of the `AᵀB` output).
    pub fn b_cols(&self) -> usize {
        self.pending.1.cols
    }

    /// Feeds the next row block of each stream; the blocks must cover the
    /// same rows (equal row counts).
    pub fn push_blocks(&mut self, a: &Matrix, b: &Matrix) -> Result<()> {
        if a.rows() != b.rows() || a.cols() != self.a_cols() || b.cols() != self.b_cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "cross_gram_accumulate",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        self.push((a, b))
    }

    /// The cross product `AᵀB` of every row pair seen so far
    /// (non-consuming, like [`GramAccumulator::finish`]).
    pub fn finish(&self) -> Result<Matrix> {
        self.try_finish()
    }
}

/// Gram matrix `AᵀA` of a row-block source through the streaming
/// accumulator: bitwise identical for every shard layout and thread count,
/// and equal to [`Matrix::gram`] whenever the source fits in one chunk.
pub fn gram_streamed(source: &dyn RowBlocks) -> Result<Matrix> {
    let mut acc = GramAccumulator::new(source.cols());
    source.for_each_block(&mut |b| acc.push_block(b))?;
    if acc.rows_seen() != source.rows() {
        return Err(LinalgError::InvalidArgument(format!(
            "row-block source delivered {} of its declared {} rows",
            acc.rows_seen(),
            source.rows()
        )));
    }
    Ok(acc.finish())
}

/// Row-streamed product `source · rhs`: each global chunk of rows is
/// multiplied independently and written to its own output rows, so the
/// result is bitwise identical for every shard layout (and equal to
/// [`Matrix::matmul`] whenever the source fits in one chunk). Peak memory
/// is one chunk plus the output.
pub fn matmul_streamed(source: &dyn RowBlocks, rhs: &Matrix) -> Result<Matrix> {
    let (n, k) = source.shape();
    if k != rhs.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_streamed",
            lhs: (n, k),
            rhs: rhs.shape(),
        });
    }
    let m = rhs.cols();
    let mut out = Matrix::zeros(n, m);
    let mut pending = PendingRows::new(k);
    let mut next_row = 0usize;
    let mut write = |p: Matrix| -> Result<()> {
        if next_row + p.rows() > n {
            // An over-delivering source (more rows than it declared).
            return Err(LinalgError::InvalidArgument(format!(
                "row-block source delivered more than its declared {n} rows"
            )));
        }
        let len = p.rows() * m;
        out.as_mut_slice()[next_row * m..next_row * m + len].copy_from_slice(p.as_slice());
        next_row += p.rows();
        Ok(())
    };
    source.for_each_block(&mut |block| {
        if block.cols() != k {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_streamed",
                lhs: (n, k),
                rhs: block.shape(),
            });
        }
        realign(&mut pending, block, |pending, full| {
            let products = map_chunks(full, |i, lone| {
                let chunk = pending.chunk(i);
                let p = if lone {
                    chunk.matmul(rhs)
                } else {
                    chunk.matmul_impl(rhs, 1)
                };
                crate::pool::recycle_f64(chunk.into_vec());
                p
            });
            products.into_iter().try_for_each(|p| write(p?))
        })
    })?;
    if let Some(rem) = pending.remainder() {
        let p = rem.matmul(rhs)?;
        crate::pool::recycle_f64(rem.into_vec());
        write(p)?;
    }
    if next_row != n {
        // An under-delivering source: the missing bottom rows of `out`
        // would otherwise be silently zero.
        return Err(LinalgError::InvalidArgument(format!(
            "row-block source delivered {next_row} of its declared {n} rows"
        )));
    }
    Ok(out)
}

/// Reduction-streamed product `lhs · source` for `lhs` of shape `p×n` and
/// a source of `n` rows: per global chunk, the matching column block of
/// `lhs` multiplies the chunk, and the partial products fold in chunk
/// order. Bitwise identical for every shard layout; equal to
/// [`Matrix::matmul`] whenever the source fits in one chunk.
pub fn matmul_left_streamed(lhs: &Matrix, source: &dyn RowBlocks) -> Result<Matrix> {
    let (n, m) = source.shape();
    if lhs.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_left_streamed",
            lhs: lhs.shape(),
            rhs: (n, m),
        });
    }
    let mut acc: Option<Matrix> = None;
    let mut pending = PendingRows::new(m);
    let mut offset = 0usize;
    let mut fold = |chunk: Matrix| -> Result<()> {
        let l = lhs.col_range(offset, offset + chunk.rows())?;
        let p = l.matmul(&chunk)?;
        offset += chunk.rows();
        crate::pool::recycle_f64(chunk.into_vec());
        match &mut acc {
            None => acc = Some(p),
            Some(a) => add_assign(a, &p),
        }
        Ok(())
    };
    source.for_each_block(&mut |block| {
        if block.cols() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_left_streamed",
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
        // Under-delivery would silently truncate the reduction (an
        // over-delivering source already fails `lhs.col_range`).
        return Err(LinalgError::InvalidArgument(format!(
            "row-block source delivered {offset} of its declared {n} rows"
        )));
    }
    Ok(acc.unwrap_or_else(|| Matrix::zeros(lhs.rows(), m)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::PAR_FOLD_CHUNKS;

    /// Deterministic pseudo-random fill independent of the `rand` stub.
    fn lcg_matrix(rows: usize, cols: usize, mut state: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
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
    fn sharded_matrix_construction_and_round_trip() {
        let m = lcg_matrix(17, 5, 3);
        let sharded = RowShardedMatrix::from_matrix(&m, 4).unwrap();
        assert_eq!(sharded.num_shards(), 5); // 4+4+4+4+1
        assert_eq!(sharded.shape(), (17, 5));
        assert_eq!(sharded.to_dense(), m);
        // Whole-matrix shard and 1-row shards round-trip too.
        assert_eq!(
            RowShardedMatrix::from_matrix(&m, 17).unwrap().num_shards(),
            1
        );
        assert_eq!(
            RowShardedMatrix::from_matrix(&m, 1).unwrap().num_shards(),
            17
        );
        // Errors.
        assert!(RowShardedMatrix::from_matrix(&m, 0).is_err());
        assert!(RowShardedMatrix::from_shards(vec![]).is_err());
        assert!(RowShardedMatrix::from_shards(vec![Matrix::zeros(0, 3)]).is_err());
        assert!(
            RowShardedMatrix::from_shards(vec![Matrix::zeros(2, 3), Matrix::zeros(2, 4)]).is_err()
        );
    }

    #[test]
    fn append_shard_extends_rows() {
        let m = lcg_matrix(6, 4, 9);
        let mut sharded = RowShardedMatrix::from_matrix(&m, 3).unwrap();
        sharded.append_shard(lcg_matrix(2, 4, 10)).unwrap();
        assert_eq!(sharded.shape(), (8, 4));
        assert_eq!(sharded.num_shards(), 3);
        assert!(sharded.append_shard(Matrix::zeros(0, 4)).is_err());
        assert!(sharded.append_shard(Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn streamed_gram_is_shard_layout_invariant_bitwise() {
        // Rows straddling several chunk boundaries (> 2 * STREAM_CHUNK_ROWS)
        // so chunks genuinely interleave with shard boundaries.
        let n = 2 * STREAM_CHUNK_ROWS + 37;
        let m = lcg_matrix(n, 23, 11);
        let dense = gram_streamed(&m).unwrap();
        for shard_rows in [
            1usize,
            3,
            7,
            STREAM_CHUNK_ROWS - 1,
            STREAM_CHUNK_ROWS + 5,
            n,
        ] {
            let sharded = RowShardedMatrix::from_matrix(&m, shard_rows).unwrap();
            let streamed = gram_streamed(&sharded).unwrap();
            assert_bitwise(&streamed, &dense, &format!("gram shard_rows={shard_rows}"));
        }
    }

    #[test]
    fn streamed_gram_matches_one_shot_kernel_below_one_chunk() {
        let m = lcg_matrix(STREAM_CHUNK_ROWS, 40, 13);
        assert_bitwise(&gram_streamed(&m).unwrap(), &m.gram(), "single chunk");
        let small = lcg_matrix(9, 6, 14);
        assert_bitwise(&gram_streamed(&small).unwrap(), &small.gram(), "small");
    }

    #[test]
    fn streamed_gram_is_thread_count_invariant_bitwise() {
        let n = 3 * STREAM_CHUNK_ROWS + 11;
        let m = lcg_matrix(n, 31, 17);
        let sharded = RowShardedMatrix::from_matrix(&m, 50).unwrap();
        let _guard = crate::test_env::THREADS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
        std::env::set_var(ivmf_par::THREADS_ENV, "1");
        let single = gram_streamed(&sharded).unwrap();
        std::env::set_var(ivmf_par::THREADS_ENV, "4");
        let quad = gram_streamed(&sharded).unwrap();
        match prev {
            Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
            None => std::env::remove_var(ivmf_par::THREADS_ENV),
        }
        assert_bitwise(&single, &quad, "threads 1 vs 4");
    }

    #[test]
    fn gram_accumulator_is_incremental_bitwise() {
        // Folding rows in two sessions (finish in between) must equal one
        // cold pass over everything — the append_rows contract.
        let head = lcg_matrix(200, 19, 21);
        let tail = lcg_matrix(77, 19, 22);
        let mut acc = GramAccumulator::new(19);
        acc.push_block(&head).unwrap();
        let _intermediate = acc.finish(); // non-consuming
        acc.push_block(&tail).unwrap();
        let incremental = acc.finish();
        assert_eq!(acc.rows_seen(), 277);

        let mut cold = GramAccumulator::new(19);
        cold.push_block(&head).unwrap();
        cold.push_block(&tail).unwrap();
        assert_bitwise(&incremental, &cold.finish(), "incremental vs cold");
        assert!(acc.push_block(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn cross_gram_accumulator_matches_one_shot_and_is_layout_invariant() {
        let n = STREAM_CHUNK_ROWS + 61;
        let a = lcg_matrix(n, 13, 31);
        let b = lcg_matrix(n, 9, 32);
        let mut reference = CrossGramAccumulator::new(13, 9);
        reference.push_blocks(&a, &b).unwrap();
        let reference = reference.finish().unwrap();
        // Against the plain kernel, within tolerance (different chunking).
        let oracle = a.matmul_tn(&b).unwrap();
        assert!(reference.approx_eq(&oracle, 1e-12 * n as f64));
        // Layout invariance is bitwise.
        for shard_rows in [1usize, 5, 64, n] {
            let sa = RowShardedMatrix::from_matrix(&a, shard_rows).unwrap();
            let sb = RowShardedMatrix::from_matrix(&b, shard_rows).unwrap();
            let mut acc = CrossGramAccumulator::new(13, 9);
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
        // Mismatched row counts are rejected.
        let mut acc = CrossGramAccumulator::new(13, 9);
        assert!(acc
            .push_blocks(&lcg_matrix(3, 13, 1), &lcg_matrix(4, 9, 2))
            .is_err());
    }

    #[test]
    fn matmul_streamed_is_layout_invariant_and_matches_small_dense() {
        let n = 2 * STREAM_CHUNK_ROWS + 19;
        let m = lcg_matrix(n, 21, 41);
        let rhs = lcg_matrix(21, 8, 42);
        let dense = matmul_streamed(&m, &rhs).unwrap();
        for shard_rows in [1usize, 30, STREAM_CHUNK_ROWS, n] {
            let sharded = RowShardedMatrix::from_matrix(&m, shard_rows).unwrap();
            let streamed = matmul_streamed(&sharded, &rhs).unwrap();
            assert_bitwise(
                &streamed,
                &dense,
                &format!("matmul shard_rows={shard_rows}"),
            );
        }
        // One-chunk source: bitwise equal to the one-shot kernel.
        let small = lcg_matrix(40, 21, 43);
        assert_bitwise(
            &matmul_streamed(&small, &rhs).unwrap(),
            &small.matmul(&rhs).unwrap(),
            "one-chunk matmul",
        );
        assert!(matmul_streamed(&m, &lcg_matrix(5, 5, 1)).is_err());
    }

    #[test]
    fn matmul_left_streamed_is_layout_invariant_and_matches_small_dense() {
        let n = STREAM_CHUNK_ROWS + 83;
        let m = lcg_matrix(n, 17, 51);
        let lhs = lcg_matrix(6, n, 52);
        let dense = matmul_left_streamed(&lhs, &m).unwrap();
        for shard_rows in [1usize, 29, n] {
            let sharded = RowShardedMatrix::from_matrix(&m, shard_rows).unwrap();
            let streamed = matmul_left_streamed(&lhs, &sharded).unwrap();
            assert_bitwise(
                &streamed,
                &dense,
                &format!("left matmul shard_rows={shard_rows}"),
            );
        }
        // Within tolerance of the plain kernel.
        let oracle = lhs.matmul(&m).unwrap();
        assert!(dense.approx_eq(&oracle, 1e-12 * n as f64));
        // One-chunk source: bitwise equal to the one-shot kernel.
        let small = lcg_matrix(33, 17, 53);
        let small_lhs = lcg_matrix(6, 33, 54);
        assert_bitwise(
            &matmul_left_streamed(&small_lhs, &small).unwrap(),
            &small_lhs.matmul(&small).unwrap(),
            "one-chunk left matmul",
        );
        assert!(matmul_left_streamed(&lcg_matrix(2, 3, 1), &m).is_err());
    }

    #[test]
    fn huge_blocks_fold_with_bounded_buffering_and_identical_bits() {
        // A block spanning more than PAR_FOLD_CHUNKS chunks is consumed
        // piece-wise; the results must match feeding the same rows in
        // 1-row shards (and the buffer invariant must hold after a push).
        let n = PAR_FOLD_CHUNKS * STREAM_CHUNK_ROWS + 200;
        let m = lcg_matrix(n, 5, 61);
        let mut monolithic = GramAccumulator::new(5);
        monolithic.push_block(&m).unwrap();
        assert!(
            monolithic.pending.rows() < STREAM_CHUNK_ROWS,
            "full chunks must be drained after every push"
        );
        let sharded = RowShardedMatrix::from_matrix(&m, 1).unwrap();
        assert_bitwise(
            &monolithic.finish(),
            &gram_streamed(&sharded).unwrap(),
            "huge block vs 1-row shards",
        );
        let rhs = lcg_matrix(5, 3, 62);
        assert_bitwise(
            &matmul_streamed(&m, &rhs).unwrap(),
            &matmul_streamed(&sharded, &rhs).unwrap(),
            "huge block matmul",
        );
    }

    #[test]
    fn two_level_fold_is_layout_and_increment_invariant_past_a_group() {
        // Inputs spanning several merge groups exercise the group→master
        // seal; layout and incremental invariance must survive it.
        let n = 2 * GROUP_ROWS + 3 * STREAM_CHUNK_ROWS + 41;
        let m = lcg_matrix(n, 4, 91);
        let reference = gram_streamed(&m).unwrap();
        for shard_rows in [GROUP_ROWS - 1, GROUP_ROWS, GROUP_ROWS + 129, 997] {
            let sharded = RowShardedMatrix::from_matrix(&m, shard_rows).unwrap();
            assert_bitwise(
                &gram_streamed(&sharded).unwrap(),
                &reference,
                &format!("group-spanning gram shard_rows={shard_rows}"),
            );
        }
        // Incremental continuation across a group boundary.
        let mut acc = GramAccumulator::new(4);
        let head_rows = GROUP_ROWS + 77;
        let head = Matrix::from_vec(head_rows, 4, m.as_slice()[..head_rows * 4].to_vec()).unwrap();
        let tail =
            Matrix::from_vec(n - head_rows, 4, m.as_slice()[head_rows * 4..].to_vec()).unwrap();
        acc.push_block(&head).unwrap();
        let _ = acc.finish();
        acc.push_block(&tail).unwrap();
        assert_bitwise(&acc.finish(), &reference, "incremental across a group");
    }

    #[test]
    fn absorb_unit_reproduces_the_single_accumulator_bits() {
        // Cut a multi-group stream into GROUP_ROWS units, fold each in its
        // own accumulator, absorb in unit order: state and finish must
        // equal one accumulator that saw everything — including after
        // continued pushes.
        let n = 3 * GROUP_ROWS + 205;
        let m = lcg_matrix(n, 5, 92);
        let mut single = GramAccumulator::new(5);
        single.push_block(&m).unwrap();

        let mut merged = GramAccumulator::new(5);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let unit = Matrix::from_vec(end - start, 5, m.as_slice()[start * 5..end * 5].to_vec())
                .unwrap();
            let mut worker = GramAccumulator::new(5);
            worker.push_block(&unit).unwrap();
            merged.absorb_unit(worker).unwrap();
            start = end;
        }
        assert_eq!(merged.rows_seen(), single.rows_seen());
        assert_bitwise(&merged.finish(), &single.finish(), "merged vs single");
        // The merged *state* is the single-process state: continuing the
        // fold stays bitwise identical.
        let extra = lcg_matrix(300, 5, 93);
        merged.push_block(&extra).unwrap();
        single.push_block(&extra).unwrap();
        assert_bitwise(&merged.finish(), &single.finish(), "continued after merge");
        // Serialized states agree byte for byte.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        merged.write_state(&mut a).unwrap();
        single.write_state(&mut b).unwrap();
        assert_eq!(a, b, "serialized states must agree");

        // Preconditions: target off a group boundary, oversized unit,
        // column mismatch.
        let mut off = GramAccumulator::new(5);
        off.push_block(&lcg_matrix(10, 5, 94)).unwrap();
        assert!(off.absorb_unit(GramAccumulator::new(5)).is_err());
        let mut big = GramAccumulator::new(5);
        big.push_block(&lcg_matrix(GROUP_ROWS + 1, 5, 95)).unwrap();
        assert!(GramAccumulator::new(5).absorb_unit(big).is_err());
        assert!(GramAccumulator::new(5)
            .absorb_unit(GramAccumulator::new(6))
            .is_err());
    }

    #[test]
    fn cross_absorb_unit_reproduces_the_single_accumulator_bits() {
        let n = GROUP_ROWS + 391;
        let a = lcg_matrix(n, 6, 96);
        let b = lcg_matrix(n, 3, 97);
        let mut single = CrossGramAccumulator::new(6, 3);
        single.push_blocks(&a, &b).unwrap();
        let mut merged = CrossGramAccumulator::new(6, 3);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let ua = Matrix::from_vec(end - start, 6, a.as_slice()[start * 6..end * 6].to_vec())
                .unwrap();
            let ub = Matrix::from_vec(end - start, 3, b.as_slice()[start * 3..end * 3].to_vec())
                .unwrap();
            let mut worker = CrossGramAccumulator::new(6, 3);
            worker.push_blocks(&ua, &ub).unwrap();
            merged.absorb_unit(worker).unwrap();
            start = end;
        }
        assert_bitwise(
            &merged.finish().unwrap(),
            &single.finish().unwrap(),
            "cross merged vs single",
        );
        let (mut x, mut y) = (Vec::new(), Vec::new());
        merged.write_state(&mut x).unwrap();
        single.write_state(&mut y).unwrap();
        assert_eq!(x, y, "serialized cross states must agree");
    }

    /// A source whose blocks contradict its declared shape (a buggy
    /// third-party loader): the streamed kernels must reject it instead
    /// of panicking mid-stream.
    struct LyingSource;

    impl RowBlocks for LyingSource {
        fn rows(&self) -> usize {
            10
        }
        fn cols(&self) -> usize {
            10
        }
        fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
            f(&Matrix::zeros(5, 12))
        }
    }

    #[test]
    fn streamed_kernels_reject_blocks_with_inconsistent_columns() {
        assert!(matmul_streamed(&LyingSource, &Matrix::zeros(10, 3)).is_err());
        assert!(matmul_left_streamed(&Matrix::zeros(2, 10), &LyingSource).is_err());
        assert!(gram_streamed(&LyingSource).is_err());
    }

    /// A source that delivers fewer rows than it declares (e.g. a file
    /// that shrank between passes): results would silently be wrong if
    /// the kernels trusted the declaration.
    struct ShortSource;

    impl RowBlocks for ShortSource {
        fn rows(&self) -> usize {
            10
        }
        fn cols(&self) -> usize {
            4
        }
        fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
            f(&Matrix::zeros(6, 4))
        }
    }

    #[test]
    fn streamed_kernels_reject_under_delivering_sources() {
        let err = matmul_streamed(&ShortSource, &Matrix::zeros(4, 3)).unwrap_err();
        assert!(err.to_string().contains("declared"), "{err}");
        assert!(matmul_left_streamed(&Matrix::zeros(2, 10), &ShortSource).is_err());
        assert!(gram_streamed(&ShortSource).is_err());
    }

    #[test]
    fn gram_accumulator_state_round_trips_bitwise() {
        // Mid-stream state (a folded chunk plus a pending tail) must
        // survive serialization such that continuing the fold from the
        // restored accumulator is bitwise the uninterrupted run.
        let head = lcg_matrix(STREAM_CHUNK_ROWS + 45, 11, 71);
        let tail = lcg_matrix(60, 11, 72);
        let mut acc = GramAccumulator::new(11);
        acc.push_block(&head).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            GramAccumulator::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(restored.rows_seen(), acc.rows_seen());
        assert_bitwise(&restored.finish(), &acc.finish(), "restored finish");
        acc.push_block(&tail).unwrap();
        restored.push_block(&tail).unwrap();
        assert_bitwise(&restored.finish(), &acc.finish(), "continued fold");
        // Empty accumulators round-trip too.
        let empty = GramAccumulator::new(4);
        let mut buf = Vec::new();
        empty.write_state(&mut buf).unwrap();
        let restored = GramAccumulator::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(restored.rows_seen(), 0);
        assert_bitwise(&restored.finish(), &empty.finish(), "empty");
    }

    #[test]
    fn cross_gram_accumulator_state_round_trips_bitwise() {
        let n = STREAM_CHUNK_ROWS + 30;
        let a = lcg_matrix(n, 7, 73);
        let b = lcg_matrix(n, 5, 74);
        let mut acc = CrossGramAccumulator::new(7, 5);
        acc.push_blocks(&a, &b).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            CrossGramAccumulator::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        let (ta, tb) = (lcg_matrix(40, 7, 75), lcg_matrix(40, 5, 76));
        acc.push_blocks(&ta, &tb).unwrap();
        restored.push_blocks(&ta, &tb).unwrap();
        assert_bitwise(
            &restored.finish().unwrap(),
            &acc.finish().unwrap(),
            "continued cross fold",
        );
    }

    #[test]
    fn accumulator_read_state_rejects_corrupted_text() {
        let mut acc = GramAccumulator::new(3);
        acc.push_block(&lcg_matrix(STREAM_CHUNK_ROWS + 2, 3, 77))
            .unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let corrupt =
            |b: &[u8]| GramAccumulator::read_state(&mut std::io::BufReader::new(b)).unwrap_err();
        // Truncation mid-payload.
        assert!(matches!(
            corrupt(&buf[..buf.len() / 2]).kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ));
        // Wrong tag.
        let mut spam = buf.clone();
        spam[..4].copy_from_slice(b"spam");
        corrupt(&spam);
        // Pending tail at or above a chunk (never a rest state).
        corrupt(format!("gram 3 {STREAM_CHUNK_ROWS} {STREAM_CHUNK_ROWS} 0 0\n\n").as_bytes());
        // Folded rows off the chunk grid.
        corrupt(b"gram 3 100 0 0 1\n\n");
        // Acc flag contradicting the folded row count (no completed merge
        // group below GROUP_ROWS folded rows).
        corrupt(b"gram 3 0 0 1 0\n\n");
        corrupt(format!("gram 3 {STREAM_CHUNK_ROWS} 0 1 1\n\n").as_bytes());
        // Group flag contradicting the folded chunk count: one folded
        // chunk must leave an open group, a whole group must not.
        corrupt(format!("gram 3 {STREAM_CHUNK_ROWS} 0 0 0\n\n").as_bytes());
        corrupt(format!("gram 3 {GROUP_ROWS} 0 1 1\n\n").as_bytes());
        // Clobbered terminator after the final binary payload run.
        let mut noterm = buf.clone();
        *noterm.last_mut().unwrap() = b'x';
        corrupt(&noterm);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_streamed_gram_bitwise_invariant_across_shard_sizes(seed in 0u64..1_000_000) {
            // The streaming-vs-one-shot equivalence property: for random
            // shapes (straddling the chunk boundary) and random shard
            // sizes — including the 1-row and whole-matrix edge cases —
            // the sharded streamed Gram is bitwise identical to the dense
            // streamed Gram.
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..(2 * STREAM_CHUNK_ROWS + 40));
            let m = rng.gen_range(1usize..24);
            let a = lcg_matrix(n, m, seed ^ 0x5eed);
            let dense = gram_streamed(&a).unwrap();
            let mut shard_sizes = vec![1usize, n];
            shard_sizes.push(rng.gen_range(1..=n));
            shard_sizes.push(rng.gen_range(1..=n));
            for shard_rows in shard_sizes {
                let sharded = RowShardedMatrix::from_matrix(&a, shard_rows).unwrap();
                let streamed = gram_streamed(&sharded).unwrap();
                proptest::prop_assert_eq!(
                    streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    dense.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "shard_rows={} n={} m={}", shard_rows, n, m
                );
            }
        }
    }
}
