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

use crate::state_text::{
    bad_state, checked_len, parse_usize_line, read_f64_run, read_line, write_f64_run,
};
use crate::{LinalgError, Matrix, Result};
use std::io;

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

/// Entry-wise in-place sum (shapes already validated by callers).
fn add_assign(acc: &mut Matrix, rhs: &Matrix) {
    for (a, &b) in acc.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
        *a += b;
    }
}

/// Upper bound on buffered full chunks: incoming blocks are consumed in
/// pieces of at most this many chunks, each piece drained before the next
/// is copied in. This caps every accumulator's transient buffer at
/// `PAR_FOLD_CHUNKS × STREAM_CHUNK_ROWS` rows — pushing a huge dense
/// block does *not* duplicate it in memory — while still handing
/// [`ivmf_par::par_map`] several chunks at a time to schedule. Purely a
/// memory/scheduling knob: chunk boundaries and fold order (and therefore
/// every bit of the results) are unaffected.
pub(crate) const PAR_FOLD_CHUNKS: usize = 8;

/// Row buffer that re-aligns arbitrary incoming blocks to the fixed global
/// chunk grid: rows accumulate in order, full [`STREAM_CHUNK_ROWS`]-row
/// chunks are handed out for folding, the tail stays buffered.
#[derive(Debug, Clone)]
struct PendingRows {
    cols: usize,
    rows: usize,
    data: Vec<f64>,
}

impl PendingRows {
    fn new(cols: usize) -> Self {
        PendingRows {
            cols,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Rows that fit before the buffer holds [`PAR_FOLD_CHUNKS`] full
    /// chunks. Strictly positive whenever the buffer's full chunks have
    /// been drained (the invariant every accumulator re-establishes after
    /// each piece), so the piece-wise push loops always make progress.
    fn capacity_rows(&self) -> usize {
        PAR_FOLD_CHUNKS * STREAM_CHUNK_ROWS - self.rows
    }

    /// Appends rows `start..start + n` of `block`.
    fn push_rows(&mut self, block: &Matrix, start: usize, n: usize) {
        self.data
            .extend_from_slice(&block.as_slice()[start * self.cols..(start + n) * self.cols]);
        self.rows += n;
    }

    fn full_chunks(&self) -> usize {
        self.rows / STREAM_CHUNK_ROWS
    }

    /// Copy of full chunk `i` (rows `i*C .. (i+1)*C` of the buffer). The
    /// backing buffer comes from the [`crate::pool`], so steady-state
    /// streaming recycles the same chunk-sized allocations instead of
    /// hitting the allocator once per chunk; the copied values are
    /// identical either way.
    fn chunk(&self, i: usize) -> Matrix {
        let len = STREAM_CHUNK_ROWS * self.cols;
        let mut buf = crate::pool::take_f64(len);
        buf.extend_from_slice(&self.data[i * len..(i + 1) * len]);
        Matrix::from_vec(STREAM_CHUNK_ROWS, self.cols, buf)
            .expect("chunk slicing preserves the shape")
    }

    fn drain_chunks(&mut self, n: usize) {
        self.data.drain(..n * STREAM_CHUNK_ROWS * self.cols);
        self.rows -= n * STREAM_CHUNK_ROWS;
    }

    /// The buffered tail (fewer than [`STREAM_CHUNK_ROWS`] rows), if any,
    /// in a pool buffer like [`PendingRows::chunk`]'s — consumers recycle
    /// both the same way.
    fn remainder(&self) -> Option<Matrix> {
        if self.rows == 0 {
            return None;
        }
        let mut buf = crate::pool::take_f64(self.data.len());
        buf.extend_from_slice(&self.data);
        Some(
            Matrix::from_vec(self.rows, self.cols, buf)
                .expect("buffer length is rows*cols by construction"),
        )
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
#[derive(Debug, Clone)]
pub struct GramAccumulator {
    pending: PendingRows,
    /// Master partial: fold of the completed merge groups, in order.
    acc: Option<Matrix>,
    /// Group partial: fold of the chunks since the last group boundary.
    group: Option<Matrix>,
    rows_seen: usize,
}

impl GramAccumulator {
    /// An empty accumulator for a stream with `cols` columns.
    pub fn new(cols: usize) -> Self {
        GramAccumulator {
            pending: PendingRows::new(cols),
            acc: None,
            group: None,
            rows_seen: 0,
        }
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.pending.cols
    }

    /// Total rows folded or buffered so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Feeds the next row block (row order across calls).
    pub fn push_block(&mut self, block: &Matrix) -> Result<()> {
        if block.cols() != self.pending.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "gram_accumulate",
                lhs: (self.rows_seen, self.pending.cols),
                rhs: block.shape(),
            });
        }
        // Consume the block in bounded pieces so the pending buffer never
        // exceeds PAR_FOLD_CHUNKS chunks (a huge block is folded, not
        // duplicated). Chunk boundaries and fold order are unchanged.
        let rows = block.rows();
        let mut start = 0;
        loop {
            let take = self.pending.capacity_rows().min(rows - start);
            self.pending.push_rows(block, start, take);
            start += take;
            self.rows_seen += take;
            self.drain_full_chunks();
            if start >= rows {
                break;
            }
        }
        Ok(())
    }

    fn drain_full_chunks(&mut self) {
        let full = self.pending.full_chunks();
        // `drain_chunks` runs only below, so the difference still counts
        // the chunks folded *before* this call — the global chunk index
        // the group-boundary check needs.
        let mut folded = (self.rows_seen - self.pending.rows) / STREAM_CHUNK_ROWS;
        if full == 1 {
            // A lone chunk parallelizes inside the SYRK kernel.
            let c = self.pending.chunk(0);
            let g = c.gram();
            crate::pool::recycle_f64(c.into_vec());
            self.fold(g, &mut folded);
        } else if full > 1 {
            // Several chunks: schedule them as jobs across the pool, each
            // running its kernel inline. Identical results either way —
            // the kernels are thread-count-deterministic and the fold
            // below is in chunk order.
            let pending = &self.pending;
            let grams = ivmf_par::par_map(full, ivmf_par::configured_threads(), |i| {
                let c = pending.chunk(i);
                let g = c.gram_impl(1);
                crate::pool::recycle_f64(c.into_vec());
                g
            });
            for g in grams {
                self.fold(g, &mut folded);
            }
        }
        self.pending.drain_chunks(full);
    }

    /// Folds one chunk result into the group partial, sealing the group
    /// into the master at every [`MERGE_GROUP_CHUNKS`] boundary.
    fn fold(&mut self, g: Matrix, folded_chunks: &mut usize) {
        match &mut self.group {
            None => self.group = Some(g),
            Some(a) => add_assign(a, &g),
        }
        *folded_chunks += 1;
        if *folded_chunks % MERGE_GROUP_CHUNKS == 0 {
            self.seal_group();
        }
    }

    /// Moves the completed group partial into the master fold.
    fn seal_group(&mut self) {
        if let Some(g) = self.group.take() {
            match &mut self.acc {
                None => self.acc = Some(g),
                Some(a) => add_assign(a, &g),
            }
        }
    }

    /// The Gram matrix of every row seen so far. Non-consuming: the
    /// buffered tail is folded into a copy, so the accumulator keeps
    /// accepting blocks afterwards. Combination order is fixed:
    /// `master ⊕ (group ⊕ tail)`.
    pub fn finish(&self) -> Matrix {
        let mut tail = self.group.clone();
        if let Some(rem) = self.pending.remainder() {
            let g = rem.gram();
            crate::pool::recycle_f64(rem.into_vec());
            match &mut tail {
                None => tail = Some(g),
                Some(t) => add_assign(t, &g),
            }
        }
        let mut acc = self.acc.clone();
        if let Some(t) = tail {
            match &mut acc {
                None => acc = Some(t),
                Some(a) => add_assign(a, &t),
            }
        }
        acc.unwrap_or_else(|| Matrix::zeros(self.pending.cols, self.pending.cols))
    }

    /// Absorbs the state of an accumulator that folded the *next* work
    /// unit of the same stream — at most [`GROUP_ROWS`] rows, starting at
    /// this accumulator's current row — reproducing bit for bit the state
    /// this accumulator would hold had it folded those rows itself (the
    /// unit-merge contract; see the [module docs](self)).
    ///
    /// Requires `self` to sit exactly on a group boundary (no pending
    /// tail, no open group) and `other` to span at most one group, so only
    /// the final unit of a stream may be partial.
    pub fn absorb_unit(&mut self, other: GramAccumulator) -> Result<()> {
        if other.pending.cols != self.pending.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "absorb_unit",
                lhs: (self.rows_seen, self.pending.cols),
                rhs: (other.rows_seen, other.pending.cols),
            });
        }
        if self.pending.rows != 0 || self.group.is_some() || self.rows_seen % GROUP_ROWS != 0 {
            return Err(LinalgError::InvalidArgument(
                "absorb_unit target must sit on a merge-group boundary".to_string(),
            ));
        }
        if other.rows_seen > GROUP_ROWS {
            return Err(LinalgError::InvalidArgument(format!(
                "absorbed unit spans {} rows, more than one {GROUP_ROWS}-row merge group",
                other.rows_seen
            )));
        }
        // A ≤ GROUP_ROWS unit has at most one completed group (its `acc`),
        // which is exactly the next group of the combined stream.
        if let Some(g) = other.acc {
            match &mut self.acc {
                None => self.acc = Some(g),
                Some(a) => add_assign(a, &g),
            }
        }
        self.group = other.group;
        self.pending = other.pending;
        self.rows_seen += other.rows_seen;
        Ok(())
    }

    /// Serializes the complete accumulator state — pending row buffer,
    /// partial fold and row count — as bit-exact state text (see
    /// [`crate::state_text`]). [`GramAccumulator::read_state`] restores an
    /// accumulator that continues the fold with exactly the operation
    /// sequence (and therefore exactly the bits) of the original.
    pub fn write_state(&self, w: &mut dyn io::Write) -> io::Result<()> {
        writeln!(
            w,
            "gram {} {} {} {} {}",
            self.pending.cols,
            self.rows_seen,
            self.pending.rows,
            self.acc.is_some() as u8,
            self.group.is_some() as u8
        )?;
        write_f64_run(w, &self.pending.data)?;
        if let Some(a) = &self.acc {
            write_f64_run(w, a.as_slice())?;
        }
        if let Some(g) = &self.group {
            write_f64_run(w, g.as_slice())?;
        }
        Ok(())
    }

    /// Restores an accumulator written by [`GramAccumulator::write_state`].
    /// Every structural invariant is revalidated — a corrupted or
    /// truncated stream yields an error, never a panic or a silently
    /// inconsistent accumulator.
    pub fn read_state(r: &mut dyn io::BufRead) -> io::Result<Self> {
        let header = read_line(r)?;
        let head = parse_state_header(&header, "gram", 5)?;
        let (cols, rows_seen, pending_rows, has_acc, has_group) =
            (head[0], head[1], head[2], head[3], head[4]);
        validate_fold_header(cols, rows_seen, pending_rows, has_acc, has_group)?;
        let data = read_f64_run(r, checked_len(pending_rows, cols)?)?;
        let acc = if has_acc == 1 {
            let vals = read_f64_run(r, checked_len(cols, cols)?)?;
            Some(Matrix::from_vec(cols, cols, vals).map_err(|e| bad_state(e.to_string()))?)
        } else {
            None
        };
        let group = if has_group == 1 {
            let vals = read_f64_run(r, checked_len(cols, cols)?)?;
            Some(Matrix::from_vec(cols, cols, vals).map_err(|e| bad_state(e.to_string()))?)
        } else {
            None
        };
        Ok(GramAccumulator {
            pending: PendingRows {
                cols,
                rows: pending_rows,
                data,
            },
            acc,
            group,
            rows_seen,
        })
    }
}

/// Parses a state header line: the expected tag followed by exactly
/// `fields` integers.
pub(crate) fn parse_state_header(line: &str, tag: &str, fields: usize) -> io::Result<Vec<usize>> {
    let rest = line
        .strip_prefix(tag)
        .filter(|r| r.starts_with(' '))
        .ok_or_else(|| bad_state(format!("expected {tag:?} state header, got {line:?}")))?;
    parse_usize_line(rest, fields)
}

/// Shared invariants of every chunk-realigned fold header: a non-empty
/// column count, a pending tail strictly below one chunk, folded rows on
/// a chunk boundary, a master partial present exactly when at least one
/// merge group has completed, and a group partial present exactly when
/// the folded chunk count sits off a group boundary. Violations mean the
/// state did not come from a healthy accumulator.
pub(crate) fn validate_fold_header(
    cols: usize,
    rows_seen: usize,
    pending_rows: usize,
    has_acc: usize,
    has_group: usize,
) -> io::Result<()> {
    if cols == 0 {
        return Err(bad_state("accumulator state has zero columns"));
    }
    if has_acc > 1 {
        return Err(bad_state(format!("malformed acc flag {has_acc}")));
    }
    if has_group > 1 {
        return Err(bad_state(format!("malformed group flag {has_group}")));
    }
    if pending_rows >= STREAM_CHUNK_ROWS || pending_rows > rows_seen {
        return Err(bad_state(format!(
            "pending tail of {pending_rows} rows is inconsistent with {rows_seen} rows seen"
        )));
    }
    let folded = rows_seen - pending_rows;
    if folded % STREAM_CHUNK_ROWS != 0 {
        return Err(bad_state(format!(
            "folded row count {folded} is not on a {STREAM_CHUNK_ROWS}-row chunk boundary"
        )));
    }
    let chunks = folded / STREAM_CHUNK_ROWS;
    if (has_acc == 1) != (chunks / MERGE_GROUP_CHUNKS > 0) {
        return Err(bad_state(format!(
            "acc flag {has_acc} contradicts {folded} folded rows"
        )));
    }
    if (has_group == 1) != (chunks % MERGE_GROUP_CHUNKS > 0) {
        return Err(bad_state(format!(
            "group flag {has_group} contradicts {folded} folded rows"
        )));
    }
    Ok(())
}

/// Streaming accumulator for the cross product `AᵀB` over a pair of
/// row-block streams fed in lockstep (the `loᵀ·hi` term of the exact
/// interval Gram). Same chunk re-alignment and bitwise guarantees as
/// [`GramAccumulator`].
#[derive(Debug, Clone)]
pub struct CrossGramAccumulator {
    pending_a: PendingRows,
    pending_b: PendingRows,
    /// Master partial: fold of the completed merge groups, in order.
    acc: Option<Matrix>,
    /// Group partial: fold of the chunks since the last group boundary.
    group: Option<Matrix>,
    rows_seen: usize,
}

impl CrossGramAccumulator {
    /// An empty accumulator for streams with `a_cols` / `b_cols` columns.
    pub fn new(a_cols: usize, b_cols: usize) -> Self {
        CrossGramAccumulator {
            pending_a: PendingRows::new(a_cols),
            pending_b: PendingRows::new(b_cols),
            acc: None,
            group: None,
            rows_seen: 0,
        }
    }

    /// Total rows folded or buffered so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Column count of the first stream (rows of the `AᵀB` output).
    pub fn a_cols(&self) -> usize {
        self.pending_a.cols
    }

    /// Column count of the second stream (columns of the `AᵀB` output).
    pub fn b_cols(&self) -> usize {
        self.pending_b.cols
    }

    /// Feeds the next row block of each stream; the blocks must cover the
    /// same rows (equal row counts).
    pub fn push_blocks(&mut self, a: &Matrix, b: &Matrix) -> Result<()> {
        if a.rows() != b.rows()
            || a.cols() != self.pending_a.cols
            || b.cols() != self.pending_b.cols
        {
            return Err(LinalgError::DimensionMismatch {
                op: "cross_gram_accumulate",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        // Same bounded piece-wise consumption as `GramAccumulator`, with
        // the two streams advanced in lockstep.
        let rows = a.rows();
        let mut start = 0;
        loop {
            let take = self.pending_a.capacity_rows().min(rows - start);
            self.pending_a.push_rows(a, start, take);
            self.pending_b.push_rows(b, start, take);
            start += take;
            self.rows_seen += take;
            self.drain_full_chunks()?;
            if start >= rows {
                break;
            }
        }
        Ok(())
    }

    fn drain_full_chunks(&mut self) -> Result<()> {
        let full = self.pending_a.full_chunks();
        let mut folded = (self.rows_seen - self.pending_a.rows) / STREAM_CHUNK_ROWS;
        if full == 1 {
            let ca = self.pending_a.chunk(0);
            let cb = self.pending_b.chunk(0);
            let p = ca.matmul_tn(&cb);
            crate::pool::recycle_f64(ca.into_vec());
            crate::pool::recycle_f64(cb.into_vec());
            self.fold(p?, &mut folded);
        } else if full > 1 {
            let (pa, pb) = (&self.pending_a, &self.pending_b);
            let products = ivmf_par::par_map(full, ivmf_par::configured_threads(), |i| {
                let ca = pa.chunk(i);
                let cb = pb.chunk(i);
                let p = ca.matmul_tn_impl(&cb, 1);
                crate::pool::recycle_f64(ca.into_vec());
                crate::pool::recycle_f64(cb.into_vec());
                p
            });
            for p in products {
                self.fold(p?, &mut folded);
            }
        }
        self.pending_a.drain_chunks(full);
        self.pending_b.drain_chunks(full);
        Ok(())
    }

    /// Chunk-into-group fold with group sealing, exactly as in
    /// [`GramAccumulator::fold`].
    fn fold(&mut self, p: Matrix, folded_chunks: &mut usize) {
        match &mut self.group {
            None => self.group = Some(p),
            Some(a) => add_assign(a, &p),
        }
        *folded_chunks += 1;
        if *folded_chunks % MERGE_GROUP_CHUNKS == 0 {
            self.seal_group();
        }
    }

    fn seal_group(&mut self) {
        if let Some(g) = self.group.take() {
            match &mut self.acc {
                None => self.acc = Some(g),
                Some(a) => add_assign(a, &g),
            }
        }
    }

    /// The cross product `AᵀB` of every row pair seen so far
    /// (non-consuming, like [`GramAccumulator::finish`]; same
    /// `master ⊕ (group ⊕ tail)` order).
    pub fn finish(&self) -> Result<Matrix> {
        let mut tail = self.group.clone();
        if let (Some(ra), Some(rb)) = (self.pending_a.remainder(), self.pending_b.remainder()) {
            let p = ra.matmul_tn(&rb);
            crate::pool::recycle_f64(ra.into_vec());
            crate::pool::recycle_f64(rb.into_vec());
            let p = p?;
            match &mut tail {
                None => tail = Some(p),
                Some(t) => add_assign(t, &p),
            }
        }
        let mut acc = self.acc.clone();
        if let Some(t) = tail {
            match &mut acc {
                None => acc = Some(t),
                Some(a) => add_assign(a, &t),
            }
        }
        Ok(acc.unwrap_or_else(|| Matrix::zeros(self.pending_a.cols, self.pending_b.cols)))
    }

    /// Absorbs the state of an accumulator that folded the next
    /// ≤ [`GROUP_ROWS`]-row work unit of the same stream pair — the
    /// unit-merge counterpart of [`GramAccumulator::absorb_unit`],
    /// with identical preconditions and the identical bitwise contract.
    pub fn absorb_unit(&mut self, other: CrossGramAccumulator) -> Result<()> {
        if other.pending_a.cols != self.pending_a.cols
            || other.pending_b.cols != self.pending_b.cols
        {
            return Err(LinalgError::DimensionMismatch {
                op: "absorb_unit",
                lhs: (self.pending_a.cols, self.pending_b.cols),
                rhs: (other.pending_a.cols, other.pending_b.cols),
            });
        }
        if self.pending_a.rows != 0 || self.group.is_some() || self.rows_seen % GROUP_ROWS != 0 {
            return Err(LinalgError::InvalidArgument(
                "absorb_unit target must sit on a merge-group boundary".to_string(),
            ));
        }
        if other.rows_seen > GROUP_ROWS {
            return Err(LinalgError::InvalidArgument(format!(
                "absorbed unit spans {} rows, more than one {GROUP_ROWS}-row merge group",
                other.rows_seen
            )));
        }
        if let Some(g) = other.acc {
            match &mut self.acc {
                None => self.acc = Some(g),
                Some(a) => add_assign(a, &g),
            }
        }
        self.group = other.group;
        self.pending_a = other.pending_a;
        self.pending_b = other.pending_b;
        self.rows_seen += other.rows_seen;
        Ok(())
    }

    /// Serializes the complete accumulator state (both pending buffers,
    /// the partial fold and the row count) as bit-exact state text; the
    /// counterpart of [`GramAccumulator::write_state`].
    pub fn write_state(&self, w: &mut dyn io::Write) -> io::Result<()> {
        writeln!(
            w,
            "crossgram {} {} {} {} {} {}",
            self.pending_a.cols,
            self.pending_b.cols,
            self.rows_seen,
            self.pending_a.rows,
            self.acc.is_some() as u8,
            self.group.is_some() as u8
        )?;
        write_f64_run(w, &self.pending_a.data)?;
        write_f64_run(w, &self.pending_b.data)?;
        if let Some(a) = &self.acc {
            write_f64_run(w, a.as_slice())?;
        }
        if let Some(g) = &self.group {
            write_f64_run(w, g.as_slice())?;
        }
        Ok(())
    }

    /// Restores an accumulator written by
    /// [`CrossGramAccumulator::write_state`], revalidating every
    /// structural invariant (the two streams advance in lockstep, so one
    /// pending row count covers both buffers).
    pub fn read_state(r: &mut dyn io::BufRead) -> io::Result<Self> {
        let header = read_line(r)?;
        let head = parse_state_header(&header, "crossgram", 6)?;
        let (a_cols, b_cols, rows_seen, pending_rows, has_acc, has_group) =
            (head[0], head[1], head[2], head[3], head[4], head[5]);
        validate_fold_header(a_cols, rows_seen, pending_rows, has_acc, has_group)?;
        if b_cols == 0 {
            return Err(bad_state("accumulator state has zero columns"));
        }
        let data_a = read_f64_run(r, checked_len(pending_rows, a_cols)?)?;
        let data_b = read_f64_run(r, checked_len(pending_rows, b_cols)?)?;
        let acc = if has_acc == 1 {
            let vals = read_f64_run(r, checked_len(a_cols, b_cols)?)?;
            Some(Matrix::from_vec(a_cols, b_cols, vals).map_err(|e| bad_state(e.to_string()))?)
        } else {
            None
        };
        let group = if has_group == 1 {
            let vals = read_f64_run(r, checked_len(a_cols, b_cols)?)?;
            Some(Matrix::from_vec(a_cols, b_cols, vals).map_err(|e| bad_state(e.to_string()))?)
        } else {
            None
        };
        Ok(CrossGramAccumulator {
            pending_a: PendingRows {
                cols: a_cols,
                rows: pending_rows,
                data: data_a,
            },
            pending_b: PendingRows {
                cols: b_cols,
                rows: pending_rows,
                data: data_b,
            },
            acc,
            group,
            rows_seen,
        })
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
    let write = |next_row: &mut usize, p: Matrix, out: &mut Matrix| -> Result<()> {
        if *next_row + p.rows() > n {
            // An over-delivering source (more rows than it declared).
            return Err(LinalgError::InvalidArgument(format!(
                "row-block source delivered more than its declared {n} rows"
            )));
        }
        let len = p.rows() * m;
        out.as_mut_slice()[*next_row * m..*next_row * m + len].copy_from_slice(p.as_slice());
        *next_row += p.rows();
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
        // Bounded piece-wise consumption (see `PAR_FOLD_CHUNKS`).
        let rows = block.rows();
        let mut start = 0;
        loop {
            let take = pending.capacity_rows().min(rows - start);
            pending.push_rows(block, start, take);
            start += take;
            let full = pending.full_chunks();
            if full == 1 {
                let chunk = pending.chunk(0);
                let p = chunk.matmul(rhs)?;
                crate::pool::recycle_f64(chunk.into_vec());
                write(&mut next_row, p, &mut out)?;
            } else if full > 1 {
                let pending_ref = &pending;
                let products = ivmf_par::par_map(full, ivmf_par::configured_threads(), |i| {
                    let chunk = pending_ref.chunk(i);
                    let p = chunk.matmul_impl(rhs, 1);
                    crate::pool::recycle_f64(chunk.into_vec());
                    p
                });
                for p in products {
                    write(&mut next_row, p?, &mut out)?;
                }
            }
            pending.drain_chunks(full);
            if start >= rows {
                break;
            }
        }
        Ok(())
    })?;
    if let Some(rem) = pending.remainder() {
        let p = rem.matmul(rhs)?;
        crate::pool::recycle_f64(rem.into_vec());
        write(&mut next_row, p, &mut out)?;
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
    let fold = |acc: &mut Option<Matrix>, offset: &mut usize, chunk: Matrix| -> Result<()> {
        let l = lhs.col_range(*offset, *offset + chunk.rows())?;
        let p = l.matmul(&chunk)?;
        *offset += chunk.rows();
        crate::pool::recycle_f64(chunk.into_vec());
        match acc {
            None => *acc = Some(p),
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
        // Bounded piece-wise consumption (see `PAR_FOLD_CHUNKS`).
        let rows = block.rows();
        let mut start = 0;
        loop {
            let take = pending.capacity_rows().min(rows - start);
            pending.push_rows(block, start, take);
            start += take;
            let full = pending.full_chunks();
            for i in 0..full {
                fold(&mut acc, &mut offset, pending.chunk(i))?;
            }
            pending.drain_chunks(full);
            if start >= rows {
                break;
            }
        }
        Ok(())
    })?;
    if let Some(rem) = pending.remainder() {
        fold(&mut acc, &mut offset, rem)?;
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
            monolithic.pending.rows < STREAM_CHUNK_ROWS,
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
