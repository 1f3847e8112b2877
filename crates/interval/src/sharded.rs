//! Row-sharded interval matrices and the streaming interval Gram.
//!
//! The interval Gram matrix `A† = M†ᵀ M†` — the `O(nm²)` heart of
//! ISVD2–4 — is, in both of this crate's formulations, a combination of
//! **scalar row-block reductions**:
//!
//! * the exact four-product envelope needs `loᵀ·lo`, `hiᵀ·hi` and the
//!   cross product `loᵀ·hi` (its transpose supplies the fourth product),
//! * Rump's midpoint–radius enclosure needs `midᵀ·mid` and
//!   `(|mid|+rad)ᵀ(|mid|+rad)`,
//!
//! and each of those is a sum of per-row-block contributions. This module
//! lifts the chunk-realigned scalar accumulators of
//! [`ivmf_linalg::streaming`] to interval matrices:
//!
//! * [`IntervalShard`] — the one place that knows a shard's
//!   representation: implemented by the dense [`IntervalMatrix`] and by
//!   [`CsrIntervalShard`], it names its scalar [`RowBlock`] type and
//!   supplies everything the generic layers above ask of a shard
//!   (slicing, conversion, validation, content words, and its bounds and
//!   midpoint–radius payloads as scalar blocks);
//! * [`ShardedIntervalMatrix`] — an ordered set of row-block shards of one
//!   representation ([`RowShardedIntervalMatrix`] and
//!   [`CsrShardedIntervalMatrix`] name the two), and [`BoundBlocks`], one
//!   bound of any [`ShardWalk`] as a [`RowBlocks`] source of the shards'
//!   scalar blocks, which the streamed products of [`ivmf_linalg`] take
//!   directly;
//! * [`StreamingIntervalGram`] — the flavour-dispatched streaming
//!   accumulator, over dense or CSR scalar accumulators: per shard it
//!   feeds the bound (or block-converted midpoint–radius) rows into them,
//!   and [`StreamingIntervalGram::finish`] applies the same entry-wise
//!   envelope / radius combination as the dense operators,
//! * [`ShardSource`] — the lazy-loading counterpart for shard streams
//!   that do not fit in memory; every [`RowShardSource`] and every
//!   [`CsrShardSource`] (the chunked disk loaders in `ivmf-data`) is one.
//!
//! Because the scalar accumulators re-align arithmetic to fixed global
//! chunk boundaries and the interval-specific steps (midpoint, radius,
//! envelope, radius clamp) are all entry-wise, the streamed interval Gram
//! is **bitwise identical for every shard layout and thread count**, and
//! for inputs of at most [`ivmf_linalg::STREAM_CHUNK_ROWS`] rows it
//! coincides bitwise with the one-shot
//! [`IntervalMatrix::interval_gram_fast`].

use std::borrow::Cow;
use std::fmt;
use std::io;

use ivmf_linalg::state_text::{bad_state, parse_usize_line, read_line};
use ivmf_linalg::{
    ChunkKernel, CrossGramAccumulator, CsrShard, GramAccumulator, LinalgError, Matrix, RowBlock,
    RowBlocks, StreamAccumulator,
};

use crate::scalar::envelope;
use crate::{
    exact_interval_forced, CsrIntervalShard, CsrShardSource, IntervalError, IntervalMatrix, Result,
    MR_MIN_WORK,
};

/// True when the size-dispatched interval Gram of a `rows × cols` matrix
/// takes the midpoint–radius enclosure (the exact four-product envelope
/// otherwise) — the same rule as
/// [`IntervalMatrix::interval_gram_fast`]: work `m·n·m` at or above
/// [`MR_MIN_WORK`] and the exact-interval setting off.
pub fn use_mr_gram(rows: usize, cols: usize) -> bool {
    cols * rows * cols >= MR_MIN_WORK && !exact_interval_forced()
}

/// A row-block shard representation: the dense [`IntervalMatrix`] or the
/// sparse [`CsrIntervalShard`].
///
/// Sparse CSR data is bitwise the same computation as dense (skipping a
/// `[0, 0]` entry never changes a sum's bits), so the sharded container,
/// the decomposition session and the disk loaders are written once,
/// generic over this trait; each method is the one spot where the two
/// representations differ.
pub trait IntervalShard: Clone + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// True for the CSR representation: sessions over it hash stored
    /// entries only and always fold the Gram through the sparse kernels.
    const CSR: bool;
    /// The scalar row block the shard's bounds are stored as: the streamed
    /// products fold a bound of a shard stream through this block type's
    /// kernels.
    type Block: RowBlock;
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// The shard of rows `start..end`.
    fn row_slice(&self, start: usize, end: usize) -> Result<Self>;
    /// The shard as a dense interval matrix: borrowed when it is one,
    /// materialized otherwise (implicit entries become `[0, 0]`).
    fn as_dense(&self) -> Cow<'_, IntervalMatrix>;
    /// The shard as CSR rows: borrowed when it is one, CSR-compressed
    /// otherwise (dropping `[0, 0]` entries, a bitwise no-op in every
    /// kernel).
    fn as_csr(&self) -> Cow<'_, CsrIntervalShard>;
    /// Rows of representation `R` in this one: dense rows are
    /// CSR-compressed for a CSR target, and a dense target refuses CSR
    /// rows (`None`) — they are never densified implicitly.
    fn adopt<R: IntervalShard>(rows: &R) -> Option<Cow<'_, Self>>;
    /// The first cell in row order that is no valid input interval — a
    /// NaN or infinite bound, or `lo > hi` — as `(row, col, lo, hi)`.
    /// Implicit CSR entries (`[0, 0]`) are always valid.
    fn first_invalid_cell(&self) -> Option<(usize, usize, f64, f64)>;
    /// Feeds the shard's content, in row order, into a lower-bound and an
    /// upper-bound word stream: dense shards every bound's bit pattern;
    /// CSR shards per row the stored-entry count, then `(column, bound
    /// bits)` pairs — the per-row count keeps the stream injective across
    /// row boundaries, and hashing implicit zeros would cost `O(nm)`.
    fn content_words(&self, lo: impl FnMut(u64), hi: impl FnMut(u64));
    /// The lower (`hi == false`) or upper bound as a scalar block.
    fn bound(&self, hi: bool) -> Cow<'_, Self::Block>;
    /// The midpoint `0.5·(lo + hi)` and the Rump magnitude `|mid| + rad`
    /// (with `rad = 0.5·|hi − lo|`) as scalar blocks: the two streams the
    /// midpoint–radius Gram folds. Both are entry-wise and map `[0, 0]` to
    /// `0.0`, so the CSR payloads are exactly the nonzero entries of the
    /// dense conversion.
    fn mid_rad(&self) -> (Self::Block, Self::Block);
    /// Returns the shard's backing buffers to the [`ivmf_linalg::pool`],
    /// so the next decoded shard can reuse them instead of allocating
    /// (dropping the shard instead is always correct, just slower in
    /// steady-state streaming loops).
    fn recycle(self);
}

impl IntervalShard for IntervalMatrix {
    const CSR: bool = false;
    type Block = Matrix;
    fn rows(&self) -> usize {
        IntervalMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        IntervalMatrix::cols(self)
    }
    fn row_slice(&self, start: usize, end: usize) -> Result<Self> {
        IntervalMatrix::row_slice(self, start, end)
    }
    fn as_dense(&self) -> Cow<'_, IntervalMatrix> {
        Cow::Borrowed(self)
    }
    fn as_csr(&self) -> Cow<'_, CsrIntervalShard> {
        Cow::Owned(CsrIntervalShard::from_dense(self))
    }
    fn adopt<R: IntervalShard>(rows: &R) -> Option<Cow<'_, Self>> {
        (!R::CSR).then(|| rows.as_dense())
    }
    fn first_invalid_cell(&self) -> Option<(usize, usize, f64, f64)> {
        let cols = self.cols();
        let cells = self.lo().as_slice().iter().zip(self.hi().as_slice());
        cells
            .enumerate()
            .find(|&(_, (&l, &h))| !valid_input(l, h))
            .map(|(k, (&l, &h))| (k / cols, k % cols, l, h))
    }
    fn content_words(&self, mut lo: impl FnMut(u64), mut hi: impl FnMut(u64)) {
        self.lo().as_slice().iter().for_each(|x| lo(x.to_bits()));
        self.hi().as_slice().iter().for_each(|x| hi(x.to_bits()));
    }
    fn bound(&self, hi: bool) -> Cow<'_, Matrix> {
        Cow::Borrowed(if hi { self.hi() } else { self.lo() })
    }
    fn mid_rad(&self) -> (Matrix, Matrix) {
        let mid = self.mid();
        let rad = self.spans().map(|s| 0.5 * s.abs());
        let mag = mid.map(f64::abs).add(&rad).expect("bounds share a shape");
        (mid, mag)
    }
    fn recycle(self) {
        let (lo, hi) = self.into_bounds();
        lo.recycle();
        hi.recycle();
    }
}

/// A valid input interval: finite bounds with `lo <= hi`. (Intermediate
/// factors may be improper; input rows — appended or read from a shard
/// file — may not.)
pub fn valid_input(lo: f64, hi: f64) -> bool {
    lo.is_finite() && hi.is_finite() && lo <= hi
}

/// A lazily produced stream of interval row-block shards.
///
/// The out-of-core counterpart of [`RowShardedIntervalMatrix`]: the total
/// shape is known up front, shards are materialized one at a time in row
/// order, and [`RowShardSource::reset`] rewinds the stream so consumers
/// can make multiple passes (the decomposition pipeline's streamed stages
/// make one pass per bound product — e.g. two per interval product, one
/// for each bound — so a source should make rewinding cheap). Implemented
/// by the chunked disk loaders in `ivmf-data`.
pub trait RowShardSource {
    /// Total number of rows across all shards.
    fn rows(&self) -> usize;
    /// Number of columns (identical for every shard).
    fn cols(&self) -> usize;
    /// Rewinds the stream to the first shard.
    fn reset(&mut self) -> Result<()>;
    /// Produces the next shard, or `None` after the last one.
    fn next_shard(&mut self) -> Result<Option<IntervalMatrix>>;
}

/// A rewindable lazy stream of shards of representation `S` — what a
/// lazy decomposition session and the prefetcher read. Every
/// [`RowShardSource`] is one over dense shards and every
/// [`CsrShardSource`] one over CSR shards.
pub trait ShardSource<S> {
    /// `(rows, cols)` of the whole stream.
    fn shape(&self) -> (usize, usize);
    /// Rewinds the stream to the first shard.
    fn rewind(&mut self) -> Result<()>;
    /// The next shard, or `None` after the last one.
    fn pull(&mut self) -> Result<Option<S>>;
}

impl<T: RowShardSource + ?Sized> ShardSource<IntervalMatrix> for T {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    fn rewind(&mut self) -> Result<()> {
        self.reset()
    }
    fn pull(&mut self) -> Result<Option<IntervalMatrix>> {
        self.next_shard()
    }
}

impl<T: CsrShardSource + ?Sized> ShardSource<CsrIntervalShard> for T {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    fn rewind(&mut self) -> Result<()> {
        self.reset()
    }
    fn pull(&mut self) -> Result<Option<CsrIntervalShard>> {
        self.next_shard()
    }
}

/// One row-ordered pass over the shards of a (virtual) interval matrix —
/// what a [`BoundBlocks`] view streams. Implemented by
/// [`ShardedIntervalMatrix`] and by the decomposition session's input.
pub trait ShardWalk<S> {
    /// `(rows, cols)` of the whole matrix.
    fn shape(&self) -> (usize, usize);
    /// Calls `f` on every shard, in row order.
    fn for_each_shard(&self, f: &mut dyn FnMut(&S) -> Result<()>) -> Result<()>;
}

/// One bound (`lo` or `hi`) of a [`ShardWalk`] viewed as a scalar
/// row-block stream: a [`RowBlocks`] source of the shards' scalar blocks
/// (each CSR shard's bound pattern, never densified), so the streaming
/// kernels consume it directly. Errors of the walk itself (a failing lazy
/// source) surface as [`LinalgError::InvalidArgument`].
#[derive(Clone, Copy)]
pub struct BoundBlocks<'a, S> {
    walk: &'a dyn ShardWalk<S>,
    hi: bool,
}

impl<'a, S> BoundBlocks<'a, S> {
    /// The lower (`hi == false`) or upper bound of `walk`.
    pub fn new(walk: &'a dyn ShardWalk<S>, hi: bool) -> Self {
        BoundBlocks { walk, hi }
    }
}

impl<S: IntervalShard> RowBlocks<S::Block> for BoundBlocks<'_, S> {
    fn rows(&self) -> usize {
        self.walk.shape().0
    }
    fn cols(&self) -> usize {
        self.walk.shape().1
    }
    fn for_each_block(
        &self,
        f: &mut dyn FnMut(&S::Block) -> ivmf_linalg::Result<()>,
    ) -> ivmf_linalg::Result<()> {
        self.walk
            .for_each_shard(&mut |s| Ok(f(&s.bound(self.hi))?))
            .map_err(|e| match e {
                IntervalError::Linalg(e) => e,
                e => LinalgError::InvalidArgument(format!("row-shard stream: {e}")),
            })
    }
}

/// An ordered set of interval row-block shards of one representation
/// forming one (virtual) interval matrix.
///
/// Shards may have any positive row count; all share one column count.
/// The shard layout is invisible in results — every consumer re-aligns
/// its arithmetic to fixed global chunk boundaries — so it only bounds
/// peak per-block memory and sets the granularity of
/// [`ShardedIntervalMatrix::append_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIntervalMatrix<S> {
    shards: Vec<S>,
    rows: usize,
    cols: usize,
}

/// A sharded matrix of dense interval shards.
pub type RowShardedIntervalMatrix = ShardedIntervalMatrix<IntervalMatrix>;

impl<S: IntervalShard> ShardedIntervalMatrix<S> {
    /// Builds a sharded interval matrix from explicit shards (non-empty
    /// list, no zero-row shards, consistent column counts).
    pub fn from_shards(shards: Vec<S>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(IntervalError::Source(
                "a sharded interval matrix needs at least one shard".to_string(),
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
                    op: "interval_shards",
                    lhs: (rows, cols),
                    rhs: (s.rows(), s.cols()),
                });
            }
            rows += s.rows();
        }
        Ok(ShardedIntervalMatrix { shards, rows, cols })
    }

    /// Splits a dense interval matrix into shards of at most `shard_rows`
    /// rows (the last shard takes the remainder), in this representation.
    pub fn from_dense(m: &IntervalMatrix, shard_rows: usize) -> Result<Self> {
        let m = S::adopt(m).expect("every representation adopts dense rows");
        Self::split(&m, shard_rows)
    }

    /// Splits one shard into shards of at most `shard_rows` rows.
    pub(crate) fn split(m: &S, shard_rows: usize) -> Result<Self> {
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
        Self::from_shards(shards)
    }

    /// Appends a new block of rows as its own shard at the bottom.
    pub fn append_rows(&mut self, rows: S) -> Result<()> {
        if rows.rows() == 0 {
            return Err(IntervalError::Source(
                "appended shard has zero rows".to_string(),
            ));
        }
        if rows.cols() != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "append_rows",
                lhs: (self.rows, self.cols),
                rhs: (rows.rows(), rows.cols()),
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
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Materializes the dense interval matrix (row-order concatenation;
    /// for CSR shards the escape hatch for small fixtures).
    pub fn to_dense(&self) -> IntervalMatrix {
        let mut lo = Vec::with_capacity(self.rows * self.cols);
        let mut hi = Vec::with_capacity(self.rows * self.cols);
        for s in &self.shards {
            let s = s.as_dense();
            lo.extend_from_slice(s.lo().as_slice());
            hi.extend_from_slice(s.hi().as_slice());
        }
        IntervalMatrix::from_bounds(
            Matrix::from_vec(self.rows, self.cols, lo).expect("validated shard shapes"),
            Matrix::from_vec(self.rows, self.cols, hi).expect("validated shard shapes"),
        )
        .expect("validated shard shapes")
    }

    /// The midpoint matrix, assembled shard by shard: entry-wise and
    /// zero-preserving, so it is bitwise identical to
    /// [`IntervalMatrix::mid`] of the dense matrix.
    pub fn mid(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for s in &self.shards {
            data.extend_from_slice(s.as_dense().mid().as_slice());
        }
        Matrix::from_vec(self.rows, self.cols, data).expect("validated shard shapes")
    }

    /// The lower bounds as a scalar row-block stream.
    pub fn lo_blocks(&self) -> BoundBlocks<'_, S> {
        BoundBlocks::new(self, false)
    }

    /// The upper bounds as a scalar row-block stream.
    pub fn hi_blocks(&self) -> BoundBlocks<'_, S> {
        BoundBlocks::new(self, true)
    }

    /// The streamed interval Gram matrix `M†ᵀ M†` (through the scalar
    /// accumulators of this representation) — same flavour dispatch as
    /// [`IntervalMatrix::interval_gram_fast`], bitwise identical for
    /// every shard layout and representation.
    pub fn interval_gram_streamed(&self) -> Result<IntervalMatrix> {
        let mut acc = if S::CSR {
            StreamingIntervalGram::new_csr(self.rows, self.cols)
        } else {
            StreamingIntervalGram::new(self.rows, self.cols)
        };
        for s in &self.shards {
            acc.push(s)?;
        }
        acc.finish()
    }
}

/// A single shard is the one-shard list.
impl AsRef<[IntervalMatrix]> for IntervalMatrix {
    fn as_ref(&self) -> &[IntervalMatrix] {
        std::slice::from_ref(self)
    }
}

impl<S> AsRef<[S]> for ShardedIntervalMatrix<S> {
    fn as_ref(&self) -> &[S] {
        &self.shards
    }
}

impl<S: IntervalShard> ShardWalk<S> for ShardedIntervalMatrix<S> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn for_each_shard(&self, f: &mut dyn FnMut(&S) -> Result<()>) -> Result<()> {
        self.shards.iter().try_for_each(f)
    }
}

/// Streaming accumulator for the interval Gram matrix `M†ᵀ M†`.
///
/// Two choices are fixed when it is built. The **flavour** follows the
/// **total** row count (so it matches what
/// [`IntervalMatrix::interval_gram_fast`] would pick for the dense matrix)
/// and the exact-interval setting in force ([`crate::exact_interval_forced`]):
///
/// * **exact** — scalar accumulators for `loᵀ·lo`, `hiᵀ·hi` and the cross
///   product `loᵀ·hi`; [`StreamingIntervalGram::finish`] takes the same
///   four-value envelope as [`IntervalMatrix::interval_gram`];
/// * **midpoint–radius** — each shard is converted to block midpoint /
///   radius form (entry-wise, so block boundaries are invisible) and the
///   two Rump products accumulate on the SYRK streaming path;
///   [`StreamingIntervalGram::finish`] applies the same radius clamp and
///   bound reconstruction as [`crate::MrMatrix::gram`].
///
/// The **representation** of the scalar accumulators is dense
/// ([`StreamingIntervalGram::new`], [`StreamingIntervalGram::with_flavour`])
/// or CSR, folding stored entries only
/// ([`StreamingIntervalGram::new_csr`],
/// [`StreamingIntervalGram::with_flavour_csr`]).
/// [`StreamingIntervalGram::push`] accepts shards of either type: a shard
/// of the other representation is converted first
/// ([`IntervalShard::as_dense`] / [`IntervalShard::as_csr`]), which
/// preserves every bit. The two representations produce
/// bitwise-identical Grams for the same logical matrix (skipping a zero
/// term never changes a sum's bits), so the choice is pure kernel
/// selection.
///
/// [`StreamingIntervalGram::finish`] is non-consuming, so new shards can
/// keep arriving afterwards; continuing the fold performs exactly the
/// operation sequence of a cold recompute over the extended matrix
/// (bitwise — the incremental-update contract the decomposition
/// pipeline's `append_rows` is built on).
#[derive(Debug, Clone)]
pub struct StreamingIntervalGram {
    cols: usize,
    rows_seen: usize,
    folds: Folds,
}

/// The scalar accumulators of one interval Gram, in its representation.
#[derive(Debug, Clone)]
enum Folds {
    Dense(Flavour<Matrix>),
    Csr(Flavour<CsrShard>),
}

/// The scalar accumulators one flavour folds, over blocks of type `B`.
#[derive(Debug, Clone)]
enum Flavour<B: RowBlock> {
    Exact {
        lo: GramAccumulator<B>,
        hi: GramAccumulator<B>,
        cross: Box<CrossGramAccumulator<B>>,
    },
    MidRad {
        mid: GramAccumulator<B>,
        sum: GramAccumulator<B>,
    },
}

impl StreamingIntervalGram {
    /// An empty dense accumulator for a stream of `total_rows × cols` (the
    /// total row count picks the flavour; see the type docs).
    pub fn new(total_rows: usize, cols: usize) -> Self {
        StreamingIntervalGram::with_flavour(cols, use_mr_gram(total_rows, cols))
    }

    /// An empty dense accumulator with the flavour given explicitly
    /// instead of derived from a total row count. A merge-group unit
    /// folded on its own accumulator (see
    /// [`StreamingIntervalGram::absorb_unit`]) must take the flavour the
    /// whole stream picked: re-deriving it from the unit's ≤ one group of
    /// rows could choose the other flavour.
    pub fn with_flavour(cols: usize, mid_rad: bool) -> Self {
        StreamingIntervalGram::build(cols, Folds::Dense(Flavour::empty(mid_rad, cols)))
    }

    /// [`StreamingIntervalGram::new`] in the CSR representation.
    pub fn new_csr(total_rows: usize, cols: usize) -> Self {
        StreamingIntervalGram::with_flavour_csr(cols, use_mr_gram(total_rows, cols))
    }

    /// [`StreamingIntervalGram::with_flavour`] in the CSR representation.
    pub fn with_flavour_csr(cols: usize, mid_rad: bool) -> Self {
        StreamingIntervalGram::build(cols, Folds::Csr(Flavour::empty(mid_rad, cols)))
    }

    fn build(cols: usize, folds: Folds) -> Self {
        StreamingIntervalGram {
            cols,
            rows_seen: 0,
            folds,
        }
    }

    /// True when this accumulator runs the midpoint–radius enclosure
    /// (false: the exact four-product envelope).
    pub fn is_mid_rad(&self) -> bool {
        match &self.folds {
            Folds::Dense(f) => f.is_mid_rad(),
            Folds::Csr(f) => f.is_mid_rad(),
        }
    }

    /// True when the scalar accumulators are the CSR ones (false: dense).
    pub fn is_csr(&self) -> bool {
        matches!(self.folds, Folds::Csr(_))
    }

    /// Total rows pushed so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Feeds the next interval shard of either representation (row order
    /// across calls); a shard of the other representation is converted
    /// first, which keeps every bit.
    pub fn push<S: IntervalShard>(&mut self, shard: &S) -> Result<()> {
        if shard.cols() != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_gram_accumulate",
                lhs: (self.rows_seen, self.cols),
                rhs: (shard.rows(), shard.cols()),
            });
        }
        match &mut self.folds {
            Folds::Dense(f) => f.push(&*shard.as_dense())?,
            Folds::Csr(f) => f.push(&*shard.as_csr())?,
        }
        self.rows_seen += shard.rows();
        Ok(())
    }

    /// The interval Gram of every row seen so far (non-consuming).
    pub fn finish(&self) -> Result<IntervalMatrix> {
        match &self.folds {
            Folds::Dense(f) => f.finish(self.cols),
            Folds::Csr(f) => f.finish(self.cols),
        }
    }

    /// Absorbs the state of an accumulator that folded the next
    /// ≤ [`ivmf_linalg::streaming::GROUP_ROWS`]-row work unit of the same
    /// interval stream, delegating to the inner scalar accumulators'
    /// [`GramAccumulator::absorb_unit`] (so the merged state is bitwise
    /// the single-process state). Representation and flavour must match —
    /// a unit folded any other way holds incompatible partials.
    pub fn absorb_unit(&mut self, other: StreamingIntervalGram) -> Result<()> {
        if other.cols != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "absorb_unit",
                lhs: (self.rows_seen, self.cols),
                rhs: (other.rows_seen, other.cols),
            });
        }
        match (&mut self.folds, other.folds) {
            (Folds::Dense(f), Folds::Dense(unit)) => f.absorb(unit)?,
            (Folds::Csr(f), Folds::Csr(unit)) => f.absorb(unit)?,
            _ => {
                return Err(IntervalError::Source(
                    "absorb_unit representation mismatch: the unit was folded with the other (dense/CSR) scalar accumulators".to_string(),
                ));
            }
        }
        self.rows_seen += other.rows_seen;
        Ok(())
    }

    /// Serializes the complete accumulator state — representation,
    /// flavour and every inner scalar accumulator — as bit-exact state
    /// text. The midpoint–radius flavour **must** persist its inner
    /// accumulators rather than any finished interval result: the mid/sum
    /// conversion is not bit-exactly invertible, so only the raw pending
    /// buffers let a restored accumulator continue the fold bitwise.
    pub fn write_state(&self, w: &mut dyn io::Write) -> io::Result<()> {
        let tag = if self.is_csr() { CSR_TAG } else { DENSE_TAG };
        let flavour = self.is_mid_rad() as u8;
        writeln!(w, "{tag} {} {} {flavour}", self.cols, self.rows_seen)?;
        match &self.folds {
            Folds::Dense(f) => f.write(w),
            Folds::Csr(f) => f.write(w),
        }
    }

    /// Restores an accumulator written by
    /// [`StreamingIntervalGram::write_state`], in the representation its
    /// header names, revalidating that every inner accumulator agrees
    /// with the header on shape and row count (so a spliced or corrupted
    /// state errors instead of producing an inconsistent fold).
    pub fn read_state(r: &mut dyn io::BufRead) -> io::Result<Self> {
        let (csr, cols, rows_seen, mid_rad) = read_header(r)?;
        let folds = if csr {
            Folds::Csr(Flavour::read(r, mid_rad, cols, rows_seen)?)
        } else {
            Folds::Dense(Flavour::read(r, mid_rad, cols, rows_seen)?)
        };
        Ok(StreamingIntervalGram {
            cols,
            rows_seen,
            folds,
        })
    }
}

/// State header tags of the two representations.
const DENSE_TAG: &str = "intervalgram";
const CSR_TAG: &str = "sparseintervalgram";

/// Parses the `<tag> <cols> <rows_seen> <flavour>` header into
/// `(csr, cols, rows_seen, mid_rad)`.
fn read_header(r: &mut dyn io::BufRead) -> io::Result<(bool, usize, usize, bool)> {
    let line = read_line(r)?;
    let (tag, fields) = line.split_once(' ').unwrap_or((&line, ""));
    let csr = match tag {
        DENSE_TAG => false,
        CSR_TAG => true,
        _ => {
            return Err(bad_state(format!(
                "expected {DENSE_TAG:?} or {CSR_TAG:?} state header, got {line:?}"
            )))
        }
    };
    let f = parse_usize_line(fields, 3)?;
    if f[0] == 0 {
        return Err(bad_state("interval accumulator state has zero columns"));
    }
    if f[2] > 1 {
        return Err(bad_state(format!("unknown flavour tag {}", f[2])));
    }
    Ok((csr, f[0], f[1], f[2] == 1))
}

impl<B: RowBlock> Flavour<B> {
    fn empty(mid_rad: bool, cols: usize) -> Self {
        if mid_rad {
            Flavour::MidRad {
                mid: GramAccumulator::new(cols),
                sum: GramAccumulator::new(cols),
            }
        } else {
            Flavour::Exact {
                lo: GramAccumulator::new(cols),
                hi: GramAccumulator::new(cols),
                cross: Box::new(CrossGramAccumulator::new(cols, cols)),
            }
        }
    }

    /// Feeds one shard whose bounds are blocks of type `B`. The
    /// midpoint–radius conversion is entry-wise, so the blocks of the
    /// converted streams are exactly the corresponding row blocks of the
    /// whole matrix's conversion.
    fn push<S: IntervalShard<Block = B>>(&mut self, shard: &S) -> Result<()> {
        match self {
            Flavour::Exact { lo, hi, cross } => {
                let (l, h) = (shard.bound(false), shard.bound(true));
                lo.push_block(&l)?;
                hi.push_block(&h)?;
                cross.push_blocks(&l, &h)?;
            }
            Flavour::MidRad { mid, sum } => {
                let (m, g) = shard.mid_rad();
                mid.push_block(&m)?;
                sum.push_block(&g)?;
            }
        }
        Ok(())
    }

    fn is_mid_rad(&self) -> bool {
        matches!(self, Flavour::MidRad { .. })
    }

    fn finish(&self, m: usize) -> Result<IntervalMatrix> {
        match self {
            Flavour::Exact { lo, hi, cross } => {
                let t1 = lo.try_finish()?;
                let t4 = hi.try_finish()?;
                let t2 = cross.try_finish()?;
                // Same envelope as the dense
                // `IntervalMatrix::interval_gram`.
                let mut glo = Matrix::zeros(m, m);
                let mut ghi = Matrix::zeros(m, m);
                for i in 0..m {
                    for j in 0..m {
                        (glo[(i, j)], ghi[(i, j)]) =
                            envelope([t1[(i, j)], t2[(i, j)], t2[(j, i)], t4[(i, j)]]);
                    }
                }
                IntervalMatrix::from_bounds(glo, ghi)
            }
            Flavour::MidRad { mid, sum } => {
                let p1 = mid.try_finish()?;
                let p2 = sum.try_finish()?;
                // Same radius clamp and bound reconstruction as
                // `MrMatrix::gram().to_interval()`.
                let rad = p2.sub(&p1.map(f64::abs))?.map(|x| x.max(0.0));
                let glo = p1.sub(&rad)?;
                let ghi = p1.add(&rad)?;
                IntervalMatrix::from_bounds(glo, ghi)
            }
        }
    }

    fn absorb(&mut self, unit: Self) -> Result<()> {
        match (self, unit) {
            (
                Flavour::Exact { lo, hi, cross },
                Flavour::Exact {
                    lo: l,
                    hi: h,
                    cross: x,
                },
            ) => {
                lo.absorb_unit(l)?;
                hi.absorb_unit(h)?;
                cross.absorb_unit(*x)?;
            }
            (Flavour::MidRad { mid, sum }, Flavour::MidRad { mid: m, sum: s }) => {
                mid.absorb_unit(m)?;
                sum.absorb_unit(s)?;
            }
            _ => {
                return Err(IntervalError::Source(
                    "absorb_unit flavour mismatch: the unit was folded under a different interval-Gram flavour".to_string(),
                ));
            }
        }
        Ok(())
    }

    fn write(&self, w: &mut dyn io::Write) -> io::Result<()> {
        match self {
            Flavour::Exact { lo, hi, cross } => {
                lo.write_state(w)?;
                hi.write_state(w)?;
                cross.write_state(w)
            }
            Flavour::MidRad { mid, sum } => {
                mid.write_state(w)?;
                sum.write_state(w)
            }
        }
    }

    /// Reads the inner accumulators and checks each against the header's
    /// column and row counts.
    fn read(
        r: &mut dyn io::BufRead,
        mid_rad: bool,
        cols: usize,
        rows_seen: usize,
    ) -> io::Result<Self> {
        Ok(if mid_rad {
            let mid = read_inner(r, cols, rows_seen)?;
            let sum = read_inner(r, cols, rows_seen)?;
            Flavour::MidRad { mid, sum }
        } else {
            let lo = read_inner(r, cols, rows_seen)?;
            let hi = read_inner(r, cols, rows_seen)?;
            let cross = Box::new(read_inner(r, cols, rows_seen)?);
            Flavour::Exact { lo, hi, cross }
        })
    }
}

/// Reads one inner scalar accumulator and checks it against the
/// interval-Gram header: a `cols × cols` product over `rows_seen` rows.
fn read_inner<K: ChunkKernel>(
    r: &mut dyn io::BufRead,
    cols: usize,
    rows_seen: usize,
) -> io::Result<StreamAccumulator<K>> {
    let acc = StreamAccumulator::<K>::read_state(r)?;
    if acc.output_shape() != (cols, cols) || acc.rows_seen() != rows_seen {
        return Err(bad_state(
            "inner accumulator state disagrees with the interval-Gram header",
        ));
    }
    Ok(acc)
}

impl IntervalMatrix {
    /// The interval Gram `M†ᵀ M†` through the streaming accumulator (one
    /// dense block in, chunk-realigned arithmetic inside): bitwise
    /// identical to streaming the same rows in any shard layout, and to
    /// [`IntervalMatrix::interval_gram_fast`] whenever the matrix fits in
    /// one [`ivmf_linalg::STREAM_CHUNK_ROWS`]-row chunk.
    pub fn interval_gram_streamed(&self) -> Result<IntervalMatrix> {
        let mut acc = StreamingIntervalGram::new(self.rows(), self.cols());
        acc.push(self)?;
        acc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_env::assert_bitwise;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_interval(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lo = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0..2.0));
        let span = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.0..1.0));
        let hi = lo.add(&span).unwrap();
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn sharded_interval_round_trip_and_mid() {
        let m = random_interval(1, 23, 7);
        let sharded = RowShardedIntervalMatrix::from_dense(&m, 5).unwrap();
        assert_eq!(sharded.num_shards(), 5);
        assert_eq!(sharded.shape(), (23, 7));
        assert_eq!(sharded.to_dense(), m);
        assert_eq!(sharded.mid(), m.mid());
        assert!(RowShardedIntervalMatrix::from_dense(&m, 0).is_err());
        assert!(RowShardedIntervalMatrix::from_shards(vec![]).is_err());
    }

    #[test]
    fn append_rows_extends_the_virtual_matrix() {
        let m = random_interval(2, 10, 4);
        let extra = random_interval(3, 3, 4);
        let mut sharded = RowShardedIntervalMatrix::from_dense(&m, 4).unwrap();
        sharded.append_rows(extra.clone()).unwrap();
        assert_eq!(sharded.shape(), (13, 4));
        // Dense concatenation agrees.
        let mut lo = m.lo().as_slice().to_vec();
        lo.extend_from_slice(extra.lo().as_slice());
        assert_eq!(sharded.to_dense().lo().as_slice(), &lo[..]);
        assert!(sharded.append_rows(random_interval(4, 2, 5)).is_err());
    }

    /// A NaN bound poisons every envelope entry it enters, in both bounds:
    /// the four-value envelope must not let `f64::min`/`max` drop it.
    #[test]
    fn nan_bound_poisons_the_envelope_entries_it_enters() {
        // Row 0, column 0 has a NaN lower bound.
        let lo = vec![f64::NAN, 1.0, 2.0, 3.0, -1.0, 0.5];
        let hi = vec![1.0, 2.0, 3.0, 4.0, 0.0, 1.5];
        let (rp, ci) = (vec![0, 2, 4, 6], vec![0, 1, 0, 1, 0, 1]);
        let csr = CsrIntervalShard::new(3, 2, rp, ci, lo.clone(), hi.clone()).unwrap();
        let bound = |v| Matrix::from_vec(3, 2, v).unwrap();
        let m = IntervalMatrix::from_bounds(bound(lo), bound(hi)).unwrap();
        let mut dense = StreamingIntervalGram::with_flavour(2, false);
        dense.push(&m).unwrap();
        let mut sparse = StreamingIntervalGram::with_flavour_csr(2, false);
        sparse.push(&csr).unwrap();
        let nan = |g: &IntervalMatrix, i, j| g.lo()[(i, j)].is_nan() && g.hi()[(i, j)].is_nan();
        let clean = |g: &IntervalMatrix, i, j| !g.lo()[(i, j)].is_nan() && !g.hi()[(i, j)].is_nan();
        for g in [m.interval_gram(), dense.finish(), sparse.finish()] {
            let g = g.unwrap();
            assert!(nan(&g, 0, 0) && nan(&g, 0, 1) && nan(&g, 1, 0), "{g:?}");
            assert!(clean(&g, 1, 1), "{g:?}");
        }
        let p = m.interval_matmul(&random_interval(9, 2, 2)).unwrap();
        for j in 0..2 {
            assert!(nan(&p, 0, j) && clean(&p, 1, j) && clean(&p, 2, j), "{p:?}");
        }
    }

    #[test]
    fn streamed_gram_exact_flavour_is_layout_invariant_and_matches_small_dense() {
        // Small shapes stay below MR_MIN_WORK, so both the streamed and the
        // dense fast path use the exact four-product envelope; a single
        // chunk also makes streamed == one-shot bitwise.
        let m = random_interval(5, 19, 6);
        let dense = m.interval_gram_fast().unwrap();
        assert_bitwise(
            &m.interval_gram_streamed().unwrap(),
            &dense,
            "dense streamed vs fast",
        );
        for shard_rows in [1usize, 4, 19] {
            let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            assert!(!StreamingIntervalGram::new(19, 6).is_mid_rad());
            assert_bitwise(
                &sharded.interval_gram_streamed().unwrap(),
                &dense,
                &format!("exact shard_rows={shard_rows}"),
            );
        }
    }

    #[test]
    fn streamed_gram_mr_flavour_is_layout_invariant() {
        // 70×70 is above MR_MIN_WORK (70·70·70 ≥ 64³) → midpoint–radius.
        let m = random_interval(6, 70, 70);
        assert!(StreamingIntervalGram::new(70, 70).is_mid_rad());
        let dense_streamed = m.interval_gram_streamed().unwrap();
        // One chunk → bitwise equal to the one-shot fast path.
        assert_bitwise(
            &dense_streamed,
            &m.interval_gram_fast().unwrap(),
            "one-chunk mr",
        );
        for shard_rows in [1usize, 13, 64, 70] {
            let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            assert_bitwise(
                &sharded.interval_gram_streamed().unwrap(),
                &dense_streamed,
                &format!("mr shard_rows={shard_rows}"),
            );
        }
    }

    #[test]
    fn streamed_gram_respects_exact_interval_pin() {
        let m = random_interval(7, 70, 70);
        let (pinned, streamed) = crate::test_env::exact().scope(|| {
            let pinned = StreamingIntervalGram::new(70, 70);
            (pinned, m.interval_gram_streamed().unwrap())
        });
        let oracle = m.interval_gram().unwrap();
        assert!(!pinned.is_mid_rad());
        assert_bitwise(&streamed, &oracle, "pinned exact, one chunk");
    }

    #[test]
    fn streamed_gram_is_incremental_bitwise() {
        let head = random_interval(8, 60, 30);
        let tail = random_interval(9, 17, 30);
        let total_rows = 77;

        let mut acc = StreamingIntervalGram::new(total_rows, 30);
        acc.push(&head).unwrap();
        let _snapshot = acc.finish().unwrap(); // non-consuming
        acc.push(&tail).unwrap();
        let incremental = acc.finish().unwrap();
        assert_eq!(acc.rows_seen(), total_rows);

        let mut cold = StreamingIntervalGram::new(total_rows, 30);
        cold.push(&head).unwrap();
        cold.push(&tail).unwrap();
        assert_bitwise(&incremental, &cold.finish().unwrap(), "incremental vs cold");

        // Shape mismatches are rejected.
        assert!(acc.push(&random_interval(10, 3, 5)).is_err());
    }

    #[test]
    fn bound_blocks_expose_the_shard_bounds_in_order() {
        let m = random_interval(11, 9, 3);
        let sharded = RowShardedIntervalMatrix::from_dense(&m, 4).unwrap();
        let lo_stream = sharded.lo_blocks();
        assert_eq!(RowBlocks::shape(&lo_stream), (9, 3));
        let mut rows = 0;
        lo_stream
            .for_each_block(&mut |b| {
                rows += b.rows();
                Ok(())
            })
            .unwrap();
        assert_eq!(rows, 9);
        // Streamed product over the bound stream equals the dense bound.
        let rhs = Matrix::identity(3);
        let lo = ivmf_linalg::matmul_streamed(&sharded.lo_blocks(), &rhs).unwrap();
        assert_eq!(lo, *m.lo());
        let hi = ivmf_linalg::matmul_streamed(&sharded.hi_blocks(), &rhs).unwrap();
        assert_eq!(hi, *m.hi());
    }

    #[test]
    fn interval_gram_state_round_trips_bitwise_in_both_flavours() {
        // Small total rows → exact flavour; a wide/tall total → mid-rad.
        // Either way, restoring mid-stream and continuing must be bitwise
        // the uninterrupted accumulator (the snapshot layer's contract).
        for (total, cols, label) in [(40usize, 6usize, "exact"), (600, 40, "midrad")] {
            let head = random_interval(21, total - 10, cols);
            let tail = random_interval(22, 10, cols);
            let mut acc = StreamingIntervalGram::new(total, cols);
            acc.push(&head).unwrap();
            let mut buf = Vec::new();
            acc.write_state(&mut buf).unwrap();
            let mut restored =
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
            assert_eq!(restored.is_mid_rad(), acc.is_mid_rad(), "{label}");
            assert_eq!(restored.rows_seen(), acc.rows_seen(), "{label}");
            acc.push(&tail).unwrap();
            restored.push(&tail).unwrap();
            assert_bitwise(
                &restored.finish().unwrap(),
                &acc.finish().unwrap(),
                &format!("continued interval gram ({label})"),
            );
        }
    }

    #[test]
    fn interval_gram_read_state_rejects_corrupted_text() {
        // Both representations go through one reader and must reject the
        // same corruptions.
        let m = random_interval(23, 50, 5);
        let csr = CsrIntervalShard::from_dense(&m);
        let dense_acc = StreamingIntervalGram::new(50, 5);
        let csr_acc = StreamingIntervalGram::new_csr(50, 5);
        for (mut acc, tag, other) in [
            (dense_acc, "intervalgram", "sparseintervalgram"),
            (csr_acc, "sparseintervalgram", "intervalgram"),
        ] {
            if acc.is_csr() {
                acc.push(&csr).unwrap();
            } else {
                acc.push(&m).unwrap();
            }
            let mut buf = Vec::new();
            acc.write_state(&mut buf).unwrap();
            let corrupt = |b: &[u8]| {
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(b)).unwrap_err()
            };
            corrupt(&buf[..buf.len() / 2]); // truncation
            let mut spam = buf.clone();
            spam[tag.len() - 4..tag.len()].copy_from_slice(b"spam");
            corrupt(&spam); // tag
            let header_len = buf.iter().position(|&b| b == b'\n').unwrap();
            assert_eq!(&buf[..header_len], format!("{tag} 5 50 0").as_bytes());
            let mut flavour = buf.clone();
            flavour[header_len - 1] = b'2';
            corrupt(&flavour); // unknown flavour
                               // Header/inner disagreement: bump the outer row count.
            let mut bumped = buf.clone();
            bumped[..header_len].copy_from_slice(format!("{tag} 5 51 0").as_bytes());
            corrupt(&bumped);
            // A header naming the other representation over these inner
            // states.
            let mut spliced = other.as_bytes().to_vec();
            spliced.extend_from_slice(&buf[tag.len()..]);
            corrupt(&spliced);
        }
    }
}
