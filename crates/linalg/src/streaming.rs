//! Chunk-realigned streaming kernels over row blocks, written once for
//! the dense [`Matrix`] and the sparse [`CsrShard`](crate::CsrShard).
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
//! * it is bitwise identical for every `IVMF_THREADS` count — dense chunks
//!   are scheduled across the [`ivmf_par`] pool (several pending chunks
//!   run as parallel jobs, a lone chunk parallelizes inside the packed
//!   kernel), CSR chunks run on the calling thread with in-kernel row
//!   panels, but the fold order is fixed and the kernels themselves are
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
//! ## One layer for both block types
//!
//! A [`RowBlock`] — [`Matrix`] or [`CsrShard`](crate::CsrShard) — supplies
//! its row buffer, its chunk schedule and its per-chunk kernels (Gram,
//! cross, right and left product); a [`RowBlocks`] source delivers blocks
//! of one type in row order. The two accumulators ([`GramAccumulator`],
//! [`CrossGramAccumulator`]) and the three drivers ([`gram_streamed`],
//! [`matmul_streamed`], [`matmul_left_streamed_t`]) are each written once,
//! generic over the block type; the chunk re-alignment and the two-level
//! fold below them are one private core. The CSR kernels fold over stored
//! entries only and are bitwise replicas of the dense ones (see
//! [`sparse`](crate::sparse)), so the block type is a storage choice that
//! never shows in results.
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
//! The payoff is [`StreamAccumulator::absorb_unit`]: a *unit* — the rows of
//! exactly one group (the final unit may be shorter) — can be folded by a
//! separate, fresh accumulator and absorbed back in unit order,
//! reproducing the single-accumulator state **bit for bit**: the unit's
//! chunks, their order and its seal point coincide with the group the
//! single accumulator would have sealed. The decomposition pipeline's
//! interval-Gram stage folds several units concurrently on this merge.

use crate::fold::{add_assign, realign, Cross, Gram, Partials, RowBuffer, StreamAccumulator};
use crate::pending::PendingRows;
use crate::{Dispatch, LinalgError, Matrix, Result};
use std::borrow::Cow;
use std::fmt;

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
/// [`StreamAccumulator::absorb_unit`].
pub const GROUP_ROWS: usize = MERGE_GROUP_CHUNKS * STREAM_CHUNK_ROWS;

/// A row block the streamed operations fold: the dense [`Matrix`] or the
/// sparse [`CsrShard`](crate::CsrShard).
///
/// It supplies everything in which the two representations differ — the
/// row buffer that re-aligns blocks to the chunk grid, the chunk
/// schedule, the per-chunk kernels and the accumulator state tags — so
/// that the accumulators and drivers of this module are written once. A
/// chunk here is a pool-backed copy of at most [`STREAM_CHUNK_ROWS`] rows
/// (the buffered tail included); the drivers hand it back with
/// [`RowBlock::recycle`] once its kernel has run. Implemented by the two
/// block types of this crate only: its buffer and partial types are
/// private to the crate.
pub trait RowBlock: Clone + fmt::Debug + Send + Sync + 'static {
    /// A block of this type as a source hands it over: `&Matrix` for
    /// dense blocks, a [`CsrRows`](crate::sparse::CsrRows) view — a
    /// borrowed pattern with a value payload — for CSR blocks, so the
    /// bounds of an interval shard stream against one pattern, uncopied.
    type View<'a>: BlockView
    where
        Self: 'a;
    /// The row buffer that re-aligns blocks of this type to the global
    /// chunk grid; its chunks are blocks of this type.
    type Pending: for<'a> RowBuffer<Block<'a> = Self::View<'a>, Chunk = Self> + Send + Sync;
    /// First token of a [`GramAccumulator`] state header.
    const GRAM_TAG: &'static str;
    /// First token of a [`CrossGramAccumulator`] state header.
    const CROSS_TAG: &'static str;
    /// Gram partials hold the upper triangle only; `finish` mirrors once.
    const UPPER_GRAM: bool;
    /// Consumed Gram and cross partials go back to the [`crate::pool`].
    const RECYCLE_PARTIALS: bool;
    /// [`RowBlock::left_chunk`] returns the transposed partial (`m×p`).
    const LEFT_T: bool;

    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    /// The block as a source hands it over.
    fn view(&self) -> Self::View<'_>;
    /// An empty row buffer for blocks of `cols` columns.
    fn pending(cols: usize) -> Self::Pending;
    /// Returns the block's backing buffers to the [`crate::pool`].
    fn recycle(self);

    /// Runs `kernel(i, lone)` on full chunks `0..full` and hands the
    /// results to `sink` in chunk order. Dense chunks fan out across the
    /// [`ivmf_par`] pool (a lone chunk, `lone == true`, parallelizes inside
    /// its packed kernel instead); CSR chunks run one at a time on the
    /// calling thread, each splitting its own row panels. The results are
    /// the same either way: the kernels are thread-count-deterministic
    /// and `sink` sees them in chunk order.
    fn map_chunks<T: Send>(
        full: usize,
        kernel: impl Fn(usize, bool) -> T + Sync,
        sink: impl FnMut(T) -> Result<()>,
    ) -> Result<()>;
    /// Folds the Gram partials of the first `full` chunks of `rows` into
    /// `sum`, in chunk order (the chunk kernel of [`GramAccumulator`]).
    fn fold_gram(rows: &Self::Pending, full: usize, sum: &mut Partials<Gram<Self>>) {
        let sink = |g| {
            sum.fold(Cow::Owned(g));
            Ok(())
        };
        let gram = |i, lone| {
            let c = rows.chunk(i);
            let g = Self::gram_chunk(&c, lone);
            c.recycle();
            g
        };
        Self::map_chunks(full, gram, sink).expect("the Gram kernel cannot fail")
    }
    /// The Gram partial `chunkᵀ·chunk` (the upper triangle only when
    /// [`RowBlock::UPPER_GRAM`]).
    fn gram_chunk(chunk: &Self, lone: bool) -> Matrix;
    /// The cross partial `aᵀ·b` of two row-aligned chunks.
    fn cross_chunk(a: &Self, b: &Self, lone: bool) -> Result<Matrix>;
    /// The right product `chunk · rhs`.
    fn right_chunk(chunk: &Self, rhs: &Matrix, lone: bool) -> Result<Matrix>;
    /// The left product `lhs[:, offset..offset + rows] · chunk` (`p×m`),
    /// or its transpose when [`RowBlock::LEFT_T`].
    fn left_chunk(lhs: &Matrix, offset: usize, chunk: &Self) -> Matrix;
}

/// The shape of a row block as a source hands it over
/// ([`RowBlock::View`]).
pub trait BlockView: Copy {
    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize);
}

impl BlockView for &Matrix {
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }
}

/// A matrix presented as an ordered sequence of row blocks of type `B`.
///
/// A block is its own one-block source, a slice of blocks is a source
/// (its blocks in order), and lazy loaders materialize one block at a
/// time. Consumers — the streaming accumulators and the decomposition
/// pipeline — only ever fold blocks in order, so a source never needs to
/// hold more than one block in memory. The streamed drivers check what
/// the source delivers against its declared shape: a block of the wrong
/// width, or more or fewer rows than declared, is an error.
pub trait RowBlocks<B: RowBlock> {
    /// Total number of rows across all blocks.
    fn rows(&self) -> usize;
    /// Number of columns (identical for every block).
    fn cols(&self) -> usize;
    /// `(rows, cols)` of the full (virtual) matrix.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    /// Calls `f` once per row block, in row order.
    fn for_each_block(&self, f: &mut dyn FnMut(B::View<'_>) -> Result<()>) -> Result<()>;
}

impl RowBlocks<Matrix> for Matrix {
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

/// Consecutive row blocks of one matrix (the column count is the first
/// block's; an empty slice is a `0 × 0` source).
impl<B: RowBlock> RowBlocks<B> for [B] {
    fn rows(&self) -> usize {
        self.iter().map(RowBlock::rows).sum()
    }
    fn cols(&self) -> usize {
        self.first().map_or(0, RowBlock::cols)
    }
    fn for_each_block(&self, f: &mut dyn FnMut(B::View<'_>) -> Result<()>) -> Result<()> {
        self.iter().try_for_each(|b| f(b.view()))
    }
}

/// The `p × n` left operand of the reduction-streamed product
/// [`matmul_left_streamed_t`], handed over one column block at a time as
/// the reduction reaches the matching rows of the right operand. A
/// [`Matrix`] is one (`&Matrix` lends its own columns); a lazy operand
/// computes each block on demand, so it never holds all `n` columns.
pub trait ColBlocks {
    /// `(p, n)` of the whole (virtual) operand.
    fn shape(&self) -> (usize, usize);
    /// Columns `start..end` of the operand, as a matrix `b` with `p` rows
    /// and an offset `o`: columns `o..o + (end - start)` of `b` are the
    /// requested ones. Callers ask for ascending, contiguous ranges with
    /// `end <= n`.
    fn col_block(&mut self, start: usize, end: usize) -> Result<(&Matrix, usize)>;
}

impl ColBlocks for &Matrix {
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }
    fn col_block(&mut self, start: usize, _end: usize) -> Result<(&Matrix, usize)> {
        Ok((*self, start))
    }
}

impl<L: ColBlocks + ?Sized> ColBlocks for &mut L {
    fn shape(&self) -> (usize, usize) {
        (**self).shape()
    }
    fn col_block(&mut self, start: usize, end: usize) -> Result<(&Matrix, usize)> {
        (**self).col_block(start, end)
    }
}

/// The column block of `lhs` that pairs with the `rows` rows of a chunk
/// starting at row `offset` of an `n`-row right operand. An
/// over-delivering source (more rows than its declared `n`) and a block
/// that does not hold the requested columns are errors.
fn lhs_block<L: ColBlocks>(
    lhs: &mut L,
    offset: usize,
    rows: usize,
    n: usize,
) -> Result<(&Matrix, usize)> {
    if offset + rows > n {
        return Err(over_delivery(n));
    }
    let p = lhs.shape().0;
    let (b, o) = lhs.col_block(offset, offset + rows)?;
    if b.rows() != p || o + rows > b.cols() {
        return Err(LinalgError::InvalidArgument(format!(
            "column block {offset}..{} came back as columns {o}..{} of a {} x {} matrix",
            offset + rows,
            o + rows,
            b.rows(),
            b.cols()
        )));
    }
    Ok((b, o))
}

/// A source that delivered more rows than the `n` it declared.
fn over_delivery(n: usize) -> LinalgError {
    LinalgError::InvalidArgument(format!(
        "row-block source delivered more than its declared {n} rows"
    ))
}

/// A source that delivered `got` of the `n` rows it declared: the missing
/// rows would otherwise silently truncate a product.
fn check_delivered(got: usize, n: usize) -> Result<()> {
    if got != n {
        return Err(LinalgError::InvalidArgument(format!(
            "row-block source delivered {got} of its declared {n} rows"
        )));
    }
    Ok(())
}

/// A block of `block` shape where a source or accumulator of `expected`
/// shape needs `expected.1` columns.
fn check_cols(op: &'static str, expected: (usize, usize), block: (usize, usize)) -> Result<()> {
    if block.1 != expected.1 {
        return Err(LinalgError::DimensionMismatch {
            op,
            lhs: expected,
            rhs: block,
        });
    }
    Ok(())
}

impl RowBlock for Matrix {
    type View<'a> = &'a Matrix;
    type Pending = PendingRows;
    const GRAM_TAG: &'static str = "gram";
    const CROSS_TAG: &'static str = "crossgram";
    const UPPER_GRAM: bool = false;
    const RECYCLE_PARTIALS: bool = false;
    const LEFT_T: bool = false;

    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn view(&self) -> &Matrix {
        self
    }
    fn pending(cols: usize) -> PendingRows {
        PendingRows::new(cols)
    }
    fn recycle(self) {
        crate::pool::recycle_f64(self.into_vec());
    }
    fn map_chunks<T: Send>(
        full: usize,
        kernel: impl Fn(usize, bool) -> T + Sync,
        sink: impl FnMut(T) -> Result<()>,
    ) -> Result<()> {
        let results = if full == 1 {
            vec![kernel(0, true)]
        } else {
            ivmf_par::par_map(full, ivmf_par::configured_threads(), |i| kernel(i, false))
        };
        results.into_iter().try_for_each(sink)
    }
    fn gram_chunk(chunk: &Matrix, lone: bool) -> Matrix {
        if lone {
            chunk.gram()
        } else {
            chunk.gram_impl(1)
        }
    }
    fn cross_chunk(a: &Matrix, b: &Matrix, lone: bool) -> Result<Matrix> {
        if lone {
            a.matmul_tn(b)
        } else {
            a.matmul_tn_impl(b, 1)
        }
    }
    fn right_chunk(chunk: &Matrix, rhs: &Matrix, lone: bool) -> Result<Matrix> {
        if lone {
            chunk.matmul(rhs)
        } else {
            chunk.matmul_impl(rhs, 1)
        }
    }
    fn left_chunk(lhs: &Matrix, offset: usize, chunk: &Matrix) -> Matrix {
        let (p, rows, m) = (lhs.rows(), chunk.rows(), chunk.cols());
        lhs.matmul_window(offset, rows, chunk, Dispatch::for_shape(p, rows, m))
    }
}

/// Streaming accumulator for the Gram matrix `AᵀA` over a stream of row
/// blocks of type `B`.
///
/// Push blocks in row order with [`GramAccumulator::push_block`]; read the
/// Gram of everything seen so far with [`GramAccumulator::finish`]
/// (non-consuming, so more rows can be appended afterwards — the
/// incremental-update path of the decomposition pipeline). See the
/// [module docs](self) for the bitwise guarantees: for the same logical
/// matrix the dense and the CSR accumulator are interchangeable bit for
/// bit, unit merge included. The CSR one folds its chunks on the calling
/// thread through one reused scratch, which keeps peak memory at one
/// `m×m` partial, and holds upper-triangle partials, mirrored once when
/// it finishes.
pub type GramAccumulator<B> = StreamAccumulator<Gram<B>>;

impl<B: RowBlock> StreamAccumulator<Gram<B>> {
    /// An empty accumulator for a stream with `cols` columns.
    pub fn new(cols: usize) -> Self {
        StreamAccumulator::empty(B::pending(cols))
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.output_shape().1
    }

    /// Feeds the next row block (row order across calls).
    pub fn push_block(&mut self, block: &B) -> Result<()> {
        self.push_view(block.view())
    }

    /// [`GramAccumulator::push_block`] for a block as a source hands it
    /// over.
    pub fn push_view(&mut self, block: B::View<'_>) -> Result<()> {
        let shape = (self.rows_seen(), self.cols());
        check_cols("gram_accumulate", shape, block.shape())?;
        self.push(block)
    }

    /// The Gram matrix of every row seen so far (non-consuming; see
    /// [`StreamAccumulator::try_finish`]).
    pub fn finish(&self) -> Matrix {
        self.try_finish().expect("the Gram kernel cannot fail")
    }
}

/// Streaming accumulator for the cross product `AᵀB` over a pair of
/// row-block streams of type `B` fed in lockstep (the `loᵀ·hi` term of
/// the exact interval Gram). Same chunk re-alignment, two-level fold,
/// unit merge and bitwise guarantees as [`GramAccumulator`].
pub type CrossGramAccumulator<B> = StreamAccumulator<Cross<B>>;

impl<B: RowBlock> StreamAccumulator<Cross<B>> {
    /// An empty accumulator for streams with `a_cols` / `b_cols` columns.
    pub fn new(a_cols: usize, b_cols: usize) -> Self {
        StreamAccumulator::empty((B::pending(a_cols), B::pending(b_cols)))
    }

    /// Column count of the first stream (rows of the `AᵀB` output).
    pub fn a_cols(&self) -> usize {
        self.output_shape().0
    }

    /// Column count of the second stream (columns of the `AᵀB` output).
    pub fn b_cols(&self) -> usize {
        self.output_shape().1
    }

    /// Feeds the next row block of each stream; the blocks must cover the
    /// same rows (equal row counts).
    pub fn push_blocks(&mut self, a: &B, b: &B) -> Result<()> {
        self.push_views(a.view(), b.view())
    }

    /// [`CrossGramAccumulator::push_blocks`] for blocks as a source hands
    /// them over.
    pub fn push_views<'a>(&mut self, a: B::View<'a>, b: B::View<'a>) -> Result<()> {
        let ((a_rows, a_cols), (b_rows, b_cols)) = (a.shape(), b.shape());
        if a_rows != b_rows || a_cols != self.a_cols() || b_cols != self.b_cols() {
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
/// accumulator: bitwise identical for every shard layout, block type and
/// thread count, and equal to [`Matrix::gram`] whenever the source fits
/// in one chunk.
pub fn gram_streamed<B: RowBlock, S: RowBlocks<B> + ?Sized>(source: &S) -> Result<Matrix> {
    let mut acc = GramAccumulator::<B>::new(source.cols());
    source.for_each_block(&mut |b| acc.push_view(b))?;
    check_delivered(acc.rows_seen(), source.rows())?;
    Ok(acc.finish())
}

/// Row-streamed product `source · rhs`: each global chunk of rows is
/// multiplied independently and written to its own output rows, so the
/// result is bitwise identical for every shard layout and block type (and
/// equal to [`Matrix::matmul`] whenever the source fits in one chunk).
/// Peak memory is one chunk plus the output.
pub fn matmul_streamed<B: RowBlock, S: RowBlocks<B> + ?Sized>(
    source: &S,
    rhs: &Matrix,
) -> Result<Matrix> {
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
    let mut pending = B::pending(k);
    let mut next_row = 0usize;
    let mut write = |p: Matrix| -> Result<()> {
        if next_row + p.rows() > n {
            return Err(over_delivery(n));
        }
        let len = p.rows() * m;
        out.as_mut_slice()[next_row * m..next_row * m + len].copy_from_slice(p.as_slice());
        next_row += p.rows();
        Ok(())
    };
    let product = |c: B, lone| {
        let p = B::right_chunk(&c, rhs, lone);
        c.recycle();
        p
    };
    source.for_each_block(&mut |block| {
        check_cols("matmul_streamed", (n, k), block.shape())?;
        realign(&mut pending, block, |pending, full| {
            B::map_chunks(
                full,
                |i, lone| product(pending.chunk(i), lone),
                |p| write(p?),
            )
        })
    })?;
    if let Some(rem) = pending.remainder() {
        write(product(rem, true)?)?;
    }
    check_delivered(next_row, n)?;
    Ok(out)
}

/// The transposed reduction-streamed product `(lhs · source)ᵀ` (`m × p`
/// for `lhs` of shape `p × n` and a source of shape `n × m`): per global
/// chunk, the matching column block of `lhs` multiplies the chunk (read
/// in place, never copied), and the partial products fold in chunk order.
/// Bitwise the transpose of [`Matrix::matmul`] whenever the source fits
/// in one chunk, and identical for every shard layout and block type.
/// Dense blocks fold `p × m` partials and transpose once at the end; CSR
/// blocks fold transposed partials directly, so tall right factors
/// (`m × r`) come out in their own layout. `lhs` is any [`ColBlocks`], a
/// `&Matrix` included.
pub fn matmul_left_streamed_t<L: ColBlocks, B: RowBlock, S: RowBlocks<B> + ?Sized>(
    mut lhs: L,
    source: &S,
) -> Result<Matrix> {
    let (n, m) = source.shape();
    let (p, lhs_cols) = lhs.shape();
    if lhs_cols != n {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_left_streamed_t",
            lhs: (p, lhs_cols),
            rhs: (n, m),
        });
    }
    let mut acc: Option<Matrix> = None;
    let mut pending = B::pending(m);
    let mut offset = 0usize;
    let mut fold = |chunk: B| -> Result<()> {
        let rows = chunk.rows();
        let (b, o) = lhs_block(&mut lhs, offset, rows, n)?;
        let part = B::left_chunk(b, o, &chunk);
        offset += rows;
        chunk.recycle();
        match &mut acc {
            None => acc = Some(part),
            Some(a) => add_assign(a, &part),
        }
        Ok(())
    };
    source.for_each_block(&mut |block| {
        check_cols("matmul_left_streamed_t", (n, m), block.shape())?;
        realign(&mut pending, block, |pending, full| {
            (0..full).try_for_each(|i| fold(pending.chunk(i)))
        })
    })?;
    if let Some(rem) = pending.remainder() {
        fold(rem)?;
    }
    check_delivered(offset, n)?;
    Ok(match (acc, B::LEFT_T) {
        (Some(a), true) => a,
        (Some(a), false) => a.transpose(),
        (None, _) => Matrix::zeros(m, p),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fold::PAR_FOLD_CHUNKS;
    use crate::test_env::with_threads;

    /// Deterministic pseudo-random fill independent of the `rand` stub.
    fn lcg_matrix(rows: usize, cols: usize, mut state: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// `m` cut into consecutive row blocks of at most `shard_rows` rows.
    fn row_shards(m: &Matrix, shard_rows: usize) -> Vec<Matrix> {
        let cols = m.cols();
        m.as_slice()
            .chunks(shard_rows * cols)
            .map(|rows| Matrix::from_vec(rows.len() / cols, cols, rows.to_vec()).unwrap())
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
    fn sharded_matrix_construction_and_round_trip() {
        // A slice of row blocks is a source of the matrix they concatenate.
        let m = lcg_matrix(17, 5, 3);
        let sharded = row_shards(&m, 4);
        assert_eq!(sharded.len(), 5); // 4+4+4+4+1
        assert_eq!(RowBlocks::shape(&sharded[..]), (17, 5));
        let mut rows = Vec::new();
        sharded[..]
            .for_each_block(&mut |b| {
                rows.extend_from_slice(b.as_slice());
                Ok(())
            })
            .unwrap();
        assert_eq!(rows, m.as_slice());
        // Whole-matrix and 1-row blocks.
        assert_eq!(row_shards(&m, 17).len(), 1);
        assert_eq!(row_shards(&m, 1).len(), 17);
    }

    #[test]
    fn append_shard_extends_rows() {
        // Appending a block to a slice source extends it by the block's
        // rows, and the streamed Gram sees the stacked matrix.
        let m = lcg_matrix(6, 4, 9);
        let extra = lcg_matrix(2, 4, 10);
        let mut sharded = row_shards(&m, 3);
        sharded.push(extra.clone());
        assert_eq!(RowBlocks::shape(&sharded[..]), (8, 4));
        assert_eq!(sharded.len(), 3);
        let mut stacked = m.as_slice().to_vec();
        stacked.extend_from_slice(extra.as_slice());
        let stacked = Matrix::from_vec(8, 4, stacked).unwrap();
        assert_bitwise(
            &gram_streamed(&sharded[..]).unwrap(),
            &gram_streamed(&stacked).unwrap(),
            "appended block",
        );
        // A block of another width is rejected when the source is folded.
        sharded.push(Matrix::zeros(2, 5));
        assert!(gram_streamed(&sharded[..]).is_err());
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
            let sharded = row_shards(&m, shard_rows);
            let streamed = gram_streamed(&sharded[..]).unwrap();
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
        let sharded = row_shards(&m, 50);
        let single = with_threads(1, || gram_streamed(&sharded[..]).unwrap());
        let quad = with_threads(4, || gram_streamed(&sharded[..]).unwrap());
        assert_bitwise(&single, &quad, "threads 1 vs 4");
    }

    #[test]
    fn gram_accumulator_is_incremental_bitwise() {
        // Folding rows in two sessions (finish in between) must equal one
        // cold pass over everything — the append_rows contract.
        let head = lcg_matrix(200, 19, 21);
        let tail = lcg_matrix(77, 19, 22);
        let mut acc = GramAccumulator::<Matrix>::new(19);
        acc.push_block(&head).unwrap();
        let _intermediate = acc.finish(); // non-consuming
        acc.push_block(&tail).unwrap();
        let incremental = acc.finish();
        assert_eq!(acc.rows_seen(), 277);

        let mut cold = GramAccumulator::<Matrix>::new(19);
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
        let mut reference = CrossGramAccumulator::<Matrix>::new(13, 9);
        reference.push_blocks(&a, &b).unwrap();
        let reference = reference.finish().unwrap();
        // Against the plain kernel, within tolerance (different chunking).
        let oracle = a.matmul_tn(&b).unwrap();
        assert!(reference.approx_eq(&oracle, 1e-12 * n as f64));
        // Layout invariance is bitwise.
        for shard_rows in [1usize, 5, 64, n] {
            let (sa, sb) = (row_shards(&a, shard_rows), row_shards(&b, shard_rows));
            let mut acc = CrossGramAccumulator::<Matrix>::new(13, 9);
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
        // Mismatched row counts are rejected.
        let mut acc = CrossGramAccumulator::<Matrix>::new(13, 9);
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
            let sharded = row_shards(&m, shard_rows);
            let streamed = matmul_streamed(&sharded[..], &rhs).unwrap();
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
        let dense = matmul_left_streamed_t(&lhs, &m).unwrap();
        for shard_rows in [1usize, 29, n] {
            let sharded = row_shards(&m, shard_rows);
            let streamed = matmul_left_streamed_t(&lhs, &sharded[..]).unwrap();
            assert_bitwise(
                &streamed,
                &dense,
                &format!("left matmul shard_rows={shard_rows}"),
            );
        }
        // Within tolerance of the plain kernel.
        let oracle = lhs.matmul(&m).unwrap().transpose();
        assert!(dense.approx_eq(&oracle, 1e-12 * n as f64));
        // One-chunk source: bitwise the transposed one-shot kernel.
        let small = lcg_matrix(33, 17, 53);
        let small_lhs = lcg_matrix(6, 33, 54);
        assert_bitwise(
            &matmul_left_streamed_t(&small_lhs, &small).unwrap(),
            &small_lhs.matmul(&small).unwrap().transpose(),
            "one-chunk left matmul",
        );
        assert!(matmul_left_streamed_t(&lcg_matrix(2, 3, 1), &m).is_err());
    }

    /// A left operand computed a block of `width` columns at a time,
    /// `short` columns too narrow when set (a buggy lazy operand).
    struct Blocked<'a> {
        lhs: &'a Matrix,
        width: usize,
        short: usize,
        block: Matrix,
        calls: usize,
    }

    impl ColBlocks for Blocked<'_> {
        fn shape(&self) -> (usize, usize) {
            self.lhs.shape()
        }
        fn col_block(&mut self, start: usize, end: usize) -> Result<(&Matrix, usize)> {
            let first = start / self.width * self.width;
            let last = (end.div_ceil(self.width) * self.width).min(self.lhs.cols()) - self.short;
            self.block = Matrix::from_fn(self.lhs.rows(), last - first, |i, j| {
                self.lhs[(i, first + j)]
            });
            self.calls += 1;
            Ok((&self.block, start - first))
        }
    }

    #[test]
    fn column_block_operands_match_the_borrowed_matrix_bitwise() {
        let n = 3 * STREAM_CHUNK_ROWS + 45;
        let m = lcg_matrix(n, 9, 55);
        let lhs = lcg_matrix(5, n, 56);
        let want = matmul_left_streamed_t(&lhs, &m).unwrap();
        let csr = crate::CsrShard::from_dense(&m);
        let want_csr = matmul_left_streamed_t(&lhs, &csr).unwrap();
        for width in [1usize, 100, STREAM_CHUNK_ROWS, n] {
            let blocked = |short| Blocked {
                lhs: &lhs,
                width,
                short,
                block: Matrix::zeros(0, 0),
                calls: 0,
            };
            let mut source = blocked(0);
            let got = matmul_left_streamed_t(&mut source, &m).unwrap();
            assert_bitwise(&got, &want, &format!("dense, {width}-column blocks"));
            assert_eq!(
                source.calls,
                n.div_ceil(STREAM_CHUNK_ROWS),
                "one request per chunk"
            );
            let got_csr = matmul_left_streamed_t(blocked(0), &csr).unwrap();
            assert_bitwise(&got_csr, &want_csr, &format!("CSR, {width}-column blocks"));
            // A block that does not reach the requested columns is an
            // error, not a panic.
            assert!(matmul_left_streamed_t(blocked(1), &m).is_err());
            assert!(matmul_left_streamed_t(blocked(1), &csr).is_err());
        }
    }

    #[test]
    fn huge_blocks_fold_with_bounded_buffering_and_identical_bits() {
        // A block spanning more than PAR_FOLD_CHUNKS chunks is consumed
        // piece-wise; the results must match feeding the same rows in
        // 1-row shards (and the buffer invariant must hold after a push).
        let n = PAR_FOLD_CHUNKS * STREAM_CHUNK_ROWS + 200;
        let m = lcg_matrix(n, 5, 61);
        let mut monolithic = GramAccumulator::<Matrix>::new(5);
        monolithic.push_block(&m).unwrap();
        assert!(
            monolithic.pending.rows() < STREAM_CHUNK_ROWS,
            "full chunks must be drained after every push"
        );
        let sharded = row_shards(&m, 1);
        assert_bitwise(
            &monolithic.finish(),
            &gram_streamed(&sharded[..]).unwrap(),
            "huge block vs 1-row shards",
        );
        let rhs = lcg_matrix(5, 3, 62);
        assert_bitwise(
            &matmul_streamed(&m, &rhs).unwrap(),
            &matmul_streamed(&sharded[..], &rhs).unwrap(),
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
            let sharded = row_shards(&m, shard_rows);
            assert_bitwise(
                &gram_streamed(&sharded[..]).unwrap(),
                &reference,
                &format!("group-spanning gram shard_rows={shard_rows}"),
            );
        }
        // Incremental continuation across a group boundary.
        let mut acc = GramAccumulator::<Matrix>::new(4);
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
        let mut single = GramAccumulator::<Matrix>::new(5);
        single.push_block(&m).unwrap();

        let mut merged = GramAccumulator::<Matrix>::new(5);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let unit = Matrix::from_vec(end - start, 5, m.as_slice()[start * 5..end * 5].to_vec())
                .unwrap();
            let mut worker = GramAccumulator::<Matrix>::new(5);
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
        let mut off = GramAccumulator::<Matrix>::new(5);
        off.push_block(&lcg_matrix(10, 5, 94)).unwrap();
        assert!(off.absorb_unit(GramAccumulator::<Matrix>::new(5)).is_err());
        let mut big = GramAccumulator::<Matrix>::new(5);
        big.push_block(&lcg_matrix(GROUP_ROWS + 1, 5, 95)).unwrap();
        assert!(GramAccumulator::<Matrix>::new(5).absorb_unit(big).is_err());
        assert!(GramAccumulator::<Matrix>::new(5)
            .absorb_unit(GramAccumulator::<Matrix>::new(6))
            .is_err());
    }

    #[test]
    fn cross_absorb_unit_reproduces_the_single_accumulator_bits() {
        let n = GROUP_ROWS + 391;
        let a = lcg_matrix(n, 6, 96);
        let b = lcg_matrix(n, 3, 97);
        let mut single = CrossGramAccumulator::<Matrix>::new(6, 3);
        single.push_blocks(&a, &b).unwrap();
        let mut merged = CrossGramAccumulator::<Matrix>::new(6, 3);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let ua = Matrix::from_vec(end - start, 6, a.as_slice()[start * 6..end * 6].to_vec())
                .unwrap();
            let ub = Matrix::from_vec(end - start, 3, b.as_slice()[start * 3..end * 3].to_vec())
                .unwrap();
            let mut worker = CrossGramAccumulator::<Matrix>::new(6, 3);
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

    /// A source declaring `10 × 4` that delivers `blocks`: a buggy
    /// third-party loader, or a file that changed between passes, when
    /// the two disagree.
    struct Declared<B> {
        blocks: Vec<B>,
    }

    impl<B: RowBlock> RowBlocks<B> for Declared<B> {
        fn rows(&self) -> usize {
            10
        }
        fn cols(&self) -> usize {
            4
        }
        fn for_each_block(&self, f: &mut dyn FnMut(B::View<'_>) -> Result<()>) -> Result<()> {
            self.blocks.iter().try_for_each(|b| f(b.view()))
        }
    }

    /// The three streamed drivers over a bad source of either block type.
    fn run_drivers<B: RowBlock>(source: &Declared<B>) -> [Result<Matrix>; 3] {
        [
            gram_streamed(source),
            matmul_streamed(source, &lcg_matrix(4, 3, 1)),
            matmul_left_streamed_t(&lcg_matrix(2, 10, 2), source),
        ]
    }

    /// Runs each `(case, blocks)` of the bad-source table through the
    /// three streamed drivers, once over dense and once over CSR blocks.
    /// Every driver must reject the source with the same typed error for
    /// both block types: a block wider or narrower than the declared 4
    /// columns is a `DimensionMismatch` naming the block's width, any
    /// other disagreement an `InvalidArgument` naming the declared rows.
    pub(crate) fn assert_bad_sources_rejected(cases: Vec<(&str, Vec<Matrix>)>) {
        for (case, blocks) in cases {
            let bad_cols = blocks.iter().map(Matrix::cols).find(|&c| c != 4);
            let csr = blocks.iter().map(crate::CsrShard::from_dense).collect();
            let dense = run_drivers(&Declared { blocks });
            let sparse = run_drivers(&Declared { blocks: csr });
            let drivers = ["gram_streamed", "matmul_streamed", "matmul_left_streamed_t"];
            for ((driver, d), s) in drivers.iter().zip(dense).zip(sparse) {
                let (d, s) = (d.unwrap_err(), s.unwrap_err());
                assert_eq!(d, s, "{driver}, {case}: dense and CSR errors differ");
                match (bad_cols, &d) {
                    (Some(c), LinalgError::DimensionMismatch { rhs, .. }) => {
                        assert_eq!(rhs.1, c, "{driver}, {case}: {d}")
                    }
                    (None, LinalgError::InvalidArgument(msg)) => {
                        assert!(msg.contains("declared 10 rows"), "{driver}, {case}: {d}")
                    }
                    _ => panic!("{driver}, {case}: {d}"),
                }
            }
        }
    }

    #[test]
    fn streamed_kernels_reject_blocks_with_inconsistent_columns() {
        assert_bad_sources_rejected(vec![
            ("column mismatch", vec![lcg_matrix(5, 6, 6)]),
            (
                "late column mismatch",
                vec![lcg_matrix(6, 4, 7), lcg_matrix(4, 3, 8)],
            ),
        ]);
    }

    #[test]
    fn streamed_kernels_reject_under_delivering_sources() {
        assert_bad_sources_rejected(vec![
            ("under-delivery", vec![lcg_matrix(6, 4, 3)]),
            (
                "over-delivery",
                vec![lcg_matrix(6, 4, 4), lcg_matrix(6, 4, 5)],
            ),
        ]);
    }

    #[test]
    fn gram_accumulator_state_round_trips_bitwise() {
        // Mid-stream state (a folded chunk plus a pending tail) must
        // survive serialization such that continuing the fold from the
        // restored accumulator is bitwise the uninterrupted run.
        let head = lcg_matrix(STREAM_CHUNK_ROWS + 45, 11, 71);
        let tail = lcg_matrix(60, 11, 72);
        let mut acc = GramAccumulator::<Matrix>::new(11);
        acc.push_block(&head).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            GramAccumulator::<Matrix>::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(restored.rows_seen(), acc.rows_seen());
        assert_bitwise(&restored.finish(), &acc.finish(), "restored finish");
        acc.push_block(&tail).unwrap();
        restored.push_block(&tail).unwrap();
        assert_bitwise(&restored.finish(), &acc.finish(), "continued fold");
        // Empty accumulators round-trip too.
        let empty = GramAccumulator::<Matrix>::new(4);
        let mut buf = Vec::new();
        empty.write_state(&mut buf).unwrap();
        let restored =
            GramAccumulator::<Matrix>::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(restored.rows_seen(), 0);
        assert_bitwise(&restored.finish(), &empty.finish(), "empty");
    }

    #[test]
    fn cross_gram_accumulator_state_round_trips_bitwise() {
        let n = STREAM_CHUNK_ROWS + 30;
        let a = lcg_matrix(n, 7, 73);
        let b = lcg_matrix(n, 5, 74);
        let mut acc = CrossGramAccumulator::<Matrix>::new(7, 5);
        acc.push_blocks(&a, &b).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            CrossGramAccumulator::<Matrix>::read_state(&mut std::io::BufReader::new(&buf[..]))
                .unwrap();
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
        let mut acc = GramAccumulator::<Matrix>::new(3);
        acc.push_block(&lcg_matrix(STREAM_CHUNK_ROWS + 2, 3, 77))
            .unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let corrupt = |b: &[u8]| {
            GramAccumulator::<Matrix>::read_state(&mut std::io::BufReader::new(b)).unwrap_err()
        };
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
                let sharded = row_shards(&a, shard_rows);
                let streamed = gram_streamed(&sharded[..]).unwrap();
                proptest::prop_assert_eq!(
                    streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    dense.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "shard_rows={} n={} m={}", shard_rows, n, m
                );
            }
        }
    }
}
