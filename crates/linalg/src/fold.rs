//! The one chunk re-alignment and two-level fold behind every streamed
//! product, dense and CSR.
//!
//! [`realign`] cuts incoming row blocks onto the global
//! [`STREAM_CHUNK_ROWS`]-row chunk grid; [`StreamAccumulator`] folds the
//! chunk partials of a Gram-type product into a group partial, seals the
//! group into the master every [`MERGE_GROUP_CHUNKS`] chunks, merges units
//! and writes and reads its state text. What differs between its
//! instances is only their [`ChunkKernel`] — [`Gram`] or [`Cross`] over a
//! block type — and what differs between the block types is their
//! [`RowBlock`] implementation. The arithmetic contract this code carries
//! is described in the [`streaming`](crate::streaming) module docs.
//!
//! The buffer, kernel and partial types are `pub` only because public
//! signatures name them; this module is private, so nothing outside the
//! crate can name, build or implement them.

use std::borrow::Cow;
use std::fmt;
use std::io;
use std::marker::PhantomData;

use crate::kernel::mirror_upper;
use crate::state_text::write_f64_run;
use crate::state_text::{bad_state, checked_len, parse_usize_line, read_f64_run, read_line};
use crate::streaming::{RowBlock, GROUP_ROWS, MERGE_GROUP_CHUNKS, STREAM_CHUNK_ROWS};
use crate::{LinalgError, Matrix, Result};

/// Upper bound on buffered full chunks: incoming blocks are consumed in
/// pieces of at most this many chunks, each piece drained before the next
/// is copied in. This caps every accumulator's transient buffer at
/// `PAR_FOLD_CHUNKS × STREAM_CHUNK_ROWS` rows — pushing a huge dense
/// block does *not* duplicate it in memory — while still handing
/// [`ivmf_par::par_map`] several chunks at a time to schedule. Purely a
/// memory/scheduling knob: chunk boundaries and fold order (and therefore
/// every bit of the results) are unaffected.
pub(crate) const PAR_FOLD_CHUNKS: usize = 8;

/// A row buffer that re-aligns incoming blocks to the global chunk grid:
/// rows accumulate in order, full chunks are copied out for folding, and
/// the tail stays buffered. Implemented by the dense and CSR buffers, and
/// by a pair of buffers advanced in lockstep (the cross products).
pub trait RowBuffer: Clone + fmt::Debug {
    /// One incoming row block.
    type Block<'a>: Copy;
    /// One chunk (or the tail) copied out of the buffer into pool-backed
    /// storage.
    type Chunk;
    /// Column counts in the state header (one per buffered stream).
    const COLS: usize;
    /// Payload counts in the state header after the pending row count
    /// (stored entries per CSR stream; none for dense).
    const COUNTS: usize;

    /// Buffered rows.
    fn rows(&self) -> usize;
    /// Rows of an incoming block.
    fn block_rows(block: Self::Block<'_>) -> usize;
    /// Appends rows `start..start + n` of `block`.
    fn push_rows(&mut self, block: Self::Block<'_>, start: usize, n: usize);
    /// Copy of full chunk `i` (rows `i*C .. (i+1)*C` of the buffer).
    fn chunk(&self, i: usize) -> Self::Chunk;
    /// Drops the first `n` full chunks.
    fn drain_chunks(&mut self, n: usize);
    /// Copy of the buffered tail (fewer than [`STREAM_CHUNK_ROWS`] rows),
    /// if any.
    fn remainder(&self) -> Option<Self::Chunk>;
    /// `(rows, cols)` of one partial product.
    fn partial_shape(&self) -> (usize, usize);
    /// Pushes the header's column counts and payload counts.
    fn header(&self, cols: &mut Vec<usize>, counts: &mut Vec<usize>);
    /// Writes the buffered rows as state text.
    fn write_payload(&self, w: &mut dyn io::Write) -> io::Result<()>;
    /// Reads back what [`RowBuffer::write_payload`] wrote, for the
    /// header's `cols`, pending `rows` and payload `counts`.
    fn read_payload(
        r: &mut dyn io::BufRead,
        cols: &[usize],
        rows: usize,
        counts: &[usize],
    ) -> io::Result<Self>;

    /// Rows that fit before the buffer holds [`PAR_FOLD_CHUNKS`] full
    /// chunks. Strictly positive whenever the full chunks have been
    /// drained (the invariant [`realign`] re-establishes after every
    /// piece), so the piece loop always makes progress.
    fn capacity_rows(&self) -> usize {
        PAR_FOLD_CHUNKS * STREAM_CHUNK_ROWS - self.rows()
    }
}

/// Two streams buffered in lockstep: the `A` and `B` operands of a cross
/// product. One pending row count covers both.
impl<P: RowBuffer> RowBuffer for (P, P) {
    type Block<'a> = (P::Block<'a>, P::Block<'a>);
    type Chunk = (P::Chunk, P::Chunk);
    const COLS: usize = 2 * P::COLS;
    const COUNTS: usize = 2 * P::COUNTS;

    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn block_rows((a, _): Self::Block<'_>) -> usize {
        P::block_rows(a)
    }
    fn push_rows(&mut self, (a, b): Self::Block<'_>, start: usize, n: usize) {
        self.0.push_rows(a, start, n);
        self.1.push_rows(b, start, n);
    }
    fn chunk(&self, i: usize) -> Self::Chunk {
        (self.0.chunk(i), self.1.chunk(i))
    }
    fn drain_chunks(&mut self, n: usize) {
        self.0.drain_chunks(n);
        self.1.drain_chunks(n);
    }
    fn remainder(&self) -> Option<Self::Chunk> {
        Some((self.0.remainder()?, self.1.remainder()?))
    }
    fn partial_shape(&self) -> (usize, usize) {
        (self.0.partial_shape().0, self.1.partial_shape().1)
    }
    fn header(&self, cols: &mut Vec<usize>, counts: &mut Vec<usize>) {
        self.0.header(cols, counts);
        self.1.header(cols, counts);
    }
    fn write_payload(&self, w: &mut dyn io::Write) -> io::Result<()> {
        self.0.write_payload(w)?;
        self.1.write_payload(w)
    }
    fn read_payload(
        r: &mut dyn io::BufRead,
        cols: &[usize],
        rows: usize,
        counts: &[usize],
    ) -> io::Result<Self> {
        let (cols_a, cols_b) = cols.split_at(P::COLS);
        let (counts_a, counts_b) = counts.split_at(P::COUNTS);
        let a = P::read_payload(r, cols_a, rows, counts_a)?;
        let b = P::read_payload(r, cols_b, rows, counts_b)?;
        Ok((a, b))
    }
}

/// Appends `block` to `pending` in pieces that never leave more than
/// [`PAR_FOLD_CHUNKS`] full chunks buffered (a huge block is folded, not
/// duplicated). After each piece, `drain(pending, full)` consumes the
/// `full` complete chunks at the front of the buffer, which are then
/// dropped. Chunk boundaries are global row indices `0, C, 2C, …`,
/// whatever the block sizes.
pub(crate) fn realign<B: RowBuffer>(
    pending: &mut B,
    block: B::Block<'_>,
    mut drain: impl FnMut(&B, usize) -> Result<()>,
) -> Result<()> {
    let rows = B::block_rows(block);
    let mut start = 0;
    loop {
        let take = pending.capacity_rows().min(rows - start);
        pending.push_rows(block, start, take);
        start += take;
        let full = pending.rows() / STREAM_CHUNK_ROWS;
        if full > 0 {
            drain(pending, full)?;
            pending.drain_chunks(full);
        }
        if start >= rows {
            return Ok(());
        }
    }
}

/// What one [`StreamAccumulator`] adds to the shared fold: its row buffer,
/// its chunk kernel and its state header tag. Implemented by the Gram and
/// the cross kernel over each [`RowBlock`] type; the kernel, buffer and
/// partial types its items name are private to the crate.
pub trait ChunkKernel: Clone + fmt::Debug {
    /// The row buffer the kernel reads chunks from.
    type Rows: RowBuffer;
    /// First token of the state header.
    const TAG: &'static str;
    /// Partials hold the upper triangle only (diagonal included, strict
    /// lower triangle zero); `finish` mirrors once.
    const UPPER: bool = false;
    /// Consumed partials go back to the [`crate::pool`].
    const RECYCLE: bool = false;

    /// Folds the first `full` chunks of `rows` into `sum`, in chunk order.
    fn fold_chunks(rows: &Self::Rows, full: usize, sum: &mut Partials<Self>) -> Result<()>;
    /// The partial of the buffered tail; recycles the tail's buffers.
    fn tail(rem: <Self::Rows as RowBuffer>::Chunk) -> Result<Matrix>;
}

/// The Gram kernel `chunkᵀ·chunk` over blocks of type `B`: the chunk
/// kernel of [`GramAccumulator`](crate::GramAccumulator). Never
/// constructed; it only names the kernel.
#[derive(Debug, Clone)]
pub struct Gram<B>(PhantomData<B>);

impl<B: RowBlock> ChunkKernel for Gram<B> {
    type Rows = B::Pending;
    const TAG: &'static str = B::GRAM_TAG;
    const UPPER: bool = B::UPPER_GRAM;
    const RECYCLE: bool = B::RECYCLE_PARTIALS;

    fn fold_chunks(rows: &B::Pending, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        B::fold_gram(rows, full, sum);
        Ok(())
    }

    fn tail(rem: B) -> Result<Matrix> {
        let g = B::gram_chunk(&rem, true);
        rem.recycle();
        Ok(g)
    }
}

/// The cross kernel `aᵀ·b` over pairs of row-aligned blocks of type `B`:
/// the chunk kernel of
/// [`CrossGramAccumulator`](crate::CrossGramAccumulator). Never
/// constructed; it only names the kernel.
#[derive(Debug, Clone)]
pub struct Cross<B>(PhantomData<B>);

impl<B: RowBlock> ChunkKernel for Cross<B> {
    type Rows = (B::Pending, B::Pending);
    const TAG: &'static str = B::CROSS_TAG;
    const RECYCLE: bool = B::RECYCLE_PARTIALS;

    fn fold_chunks(rows: &Self::Rows, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        let cross = |i, lone| {
            let (a, b) = rows.chunk(i);
            let p = B::cross_chunk(&a, &b, lone);
            a.recycle();
            b.recycle();
            p
        };
        B::map_chunks(full, cross, |p| {
            sum.fold(Cow::Owned(p?));
            Ok(())
        })
    }

    fn tail((a, b): (B, B)) -> Result<Matrix> {
        let p = B::cross_chunk(&a, &b, true);
        a.recycle();
        b.recycle();
        p
    }
}

/// Entry-wise in-place sum (shapes already validated by callers).
pub(crate) fn add_assign(acc: &mut Matrix, rhs: &Matrix) {
    for (a, &b) in acc.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
        *a += b;
    }
}

/// In-place sum of the upper triangles (diagonal included); the strict
/// lower triangles of both sides are zero by construction.
fn add_assign_upper(acc: &mut Matrix, rhs: &Matrix) {
    let m = rhs.cols();
    for i in 0..m {
        let (a_row, b_row) = (
            &mut acc.as_mut_slice()[i * m + i..(i + 1) * m],
            &rhs.as_slice()[i * m + i..(i + 1) * m],
        );
        for (a, &b) in a_row.iter_mut().zip(b_row) {
            *a += b;
        }
    }
}

/// True when `chunks` folded chunks leave a merge group open: the group
/// partial seals into the master every [`MERGE_GROUP_CHUNKS`] chunks.
fn group_open(chunks: usize) -> bool {
    chunks % MERGE_GROUP_CHUNKS != 0
}

/// The two partials of a fold and the number of chunks folded into them.
///
/// With [`ChunkKernel::RECYCLE`], every partial a fold consumes goes back
/// to the [`crate::pool`], and so do the two partials when the fold is
/// dropped; the partials it opens a group with come from the pool, so
/// takes and recycles balance and the shelf holds about one buffer per
/// partial in flight.
#[derive(Debug, Clone)]
pub struct Partials<K: ChunkKernel> {
    /// Master partial: fold of the completed merge groups, in order.
    acc: Option<Matrix>,
    /// Group partial: fold of the chunks since the last group boundary.
    group: Option<Matrix>,
    /// Chunks folded so far (the global index of the next chunk).
    chunks: usize,
    kernel: PhantomData<K>,
}

impl<K: ChunkKernel> Partials<K> {
    fn add(acc: &mut Matrix, rhs: &Matrix) {
        if K::UPPER {
            add_assign_upper(acc, rhs);
        } else {
            add_assign(acc, rhs);
        }
    }

    fn recycle(p: Matrix) {
        if K::RECYCLE {
            crate::pool::recycle_f64(p.into_vec());
        }
    }

    /// `slot ⊕= p` (or `slot = p` when empty).
    fn merge(slot: &mut Option<Matrix>, p: Matrix) {
        match slot {
            None => *slot = Some(p),
            Some(a) => {
                Self::add(a, &p);
                Self::recycle(p);
            }
        }
    }

    /// `p` owned: a borrowed partial is copied, into a pool buffer when
    /// partials are recycled.
    fn into_owned(p: Cow<'_, Matrix>) -> Matrix {
        match p {
            Cow::Borrowed(p) if K::RECYCLE => {
                let mut buf = crate::pool::take_f64(p.as_slice().len());
                buf.extend_from_slice(p.as_slice());
                Matrix::from_vec(p.rows(), p.cols(), buf).expect("rows x cols entries")
            }
            p => p.into_owned(),
        }
    }

    /// Folds the next chunk's partial into the group, sealing the group
    /// into the master at every [`MERGE_GROUP_CHUNKS`] boundary. A
    /// borrowed partial (a reused scratch) is copied only when it opens a
    /// group.
    pub(crate) fn fold(&mut self, p: Cow<'_, Matrix>) {
        match (&mut self.group, p) {
            (Some(g), Cow::Borrowed(p)) => Self::add(g, p),
            (group, p) => Self::merge(group, Self::into_owned(p)),
        }
        self.chunks += 1;
        if !group_open(self.chunks) {
            if let Some(g) = self.group.take() {
                Self::merge(&mut self.acc, g);
            }
        }
    }
}

impl<K: ChunkKernel> Drop for Partials<K> {
    fn drop(&mut self) {
        self.acc
            .take()
            .into_iter()
            .chain(self.group.take())
            .for_each(Self::recycle);
    }
}

/// A chunk-realigned streaming accumulator with a two-level fold: the
/// pending rows of chunk kernel `K` plus the master and group partials.
/// [`GramAccumulator`](crate::GramAccumulator) and
/// [`CrossGramAccumulator`](crate::CrossGramAccumulator), each over either
/// block type, are its instances; each adds its own constructor, push and
/// `finish`.
/// See the [`streaming`](crate::streaming) module docs for the bitwise
/// guarantees.
#[derive(Debug, Clone)]
pub struct StreamAccumulator<K: ChunkKernel> {
    pub(crate) pending: K::Rows,
    sum: Partials<K>,
}

impl<K: ChunkKernel> StreamAccumulator<K> {
    /// An empty accumulator over `pending` (an empty buffer).
    pub(crate) fn empty(pending: K::Rows) -> Self {
        StreamAccumulator {
            pending,
            sum: Partials {
                acc: None,
                group: None,
                chunks: 0,
                kernel: PhantomData,
            },
        }
    }

    /// Total rows folded or buffered so far.
    pub fn rows_seen(&self) -> usize {
        self.sum.chunks * STREAM_CHUNK_ROWS + self.pending.rows()
    }

    /// `(rows, cols)` of the finished product.
    pub fn output_shape(&self) -> (usize, usize) {
        self.pending.partial_shape()
    }

    /// Feeds the next row block (row order across calls).
    pub(crate) fn push(&mut self, block: <K::Rows as RowBuffer>::Block<'_>) -> Result<()> {
        let sum = &mut self.sum;
        realign(&mut self.pending, block, |rows, full| {
            K::fold_chunks(rows, full, sum)
        })
    }

    /// The product of every row seen so far, for any kernel (the Gram
    /// kernels cannot fail, so their own `finish` returns the matrix).
    /// Non-consuming: the buffered tail is folded into a copy, so more
    /// rows can follow. Combination order is fixed:
    /// `master ⊕ (group ⊕ tail)`.
    pub fn try_finish(&self) -> Result<Matrix> {
        // The tail partials are consumed here; the master's copy is the
        // result.
        let copy = |p: &Matrix| Partials::<K>::into_owned(Cow::Borrowed(p));
        let mut tail = self.sum.group.as_ref().map(copy);
        if let Some(rem) = self.pending.remainder() {
            Partials::<K>::merge(&mut tail, K::tail(rem)?);
        }
        let mut acc = self.sum.acc.clone();
        if let Some(t) = tail {
            Partials::<K>::merge(&mut acc, t);
        }
        let (rows, cols) = self.output_shape();
        let mut out = acc.unwrap_or_else(|| Matrix::zeros(rows, cols));
        if K::UPPER {
            mirror_upper(&mut out);
        }
        Ok(out)
    }

    /// Absorbs the state of an accumulator that folded the *next* work
    /// unit of the same stream — at most [`GROUP_ROWS`] rows, starting at
    /// this accumulator's current row — reproducing bit for bit the state
    /// this accumulator would hold had it folded those rows itself (the
    /// unit-merge contract; see the [`streaming`](crate::streaming) module
    /// docs).
    ///
    /// Requires `self` to sit exactly on a group boundary (no pending
    /// tail, no open group) and `other` to span at most one group, so only
    /// the final unit of a stream may be partial.
    pub fn absorb_unit(&mut self, mut other: StreamAccumulator<K>) -> Result<()> {
        if other.output_shape() != self.output_shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "absorb_unit",
                lhs: self.output_shape(),
                rhs: other.output_shape(),
            });
        }
        if self.pending.rows() != 0
            || self.sum.group.is_some()
            || self.rows_seen() % GROUP_ROWS != 0
        {
            return Err(LinalgError::InvalidArgument(
                "absorb_unit target must sit on a merge-group boundary".to_string(),
            ));
        }
        if other.rows_seen() > GROUP_ROWS {
            return Err(LinalgError::InvalidArgument(format!(
                "absorbed unit spans {} rows, more than one {GROUP_ROWS}-row merge group",
                other.rows_seen()
            )));
        }
        // A ≤ GROUP_ROWS unit has at most one completed group (its `acc`),
        // which is exactly the next group of the combined stream.
        if let Some(g) = other.sum.acc.take() {
            Partials::<K>::merge(&mut self.sum.acc, g);
        }
        self.sum.group = other.sum.group.take();
        self.sum.chunks += other.sum.chunks;
        self.pending = other.pending;
        Ok(())
    }

    /// Serializes the complete accumulator state as bit-exact state text
    /// (see [`crate::state_text`]): the header line
    /// `<tag> <cols…> <rows_seen> <pending_rows> <counts…> <acc> <group>`,
    /// the pending rows, then the master and group partials when present.
    /// [`StreamAccumulator::read_state`] restores an accumulator that
    /// continues the fold with exactly the operation sequence (and
    /// therefore exactly the bits) of the original.
    pub fn write_state(&self, w: &mut dyn io::Write) -> io::Result<()> {
        let (mut cols, mut counts) = (Vec::new(), Vec::new());
        self.pending.header(&mut cols, &mut counts);
        let flags = [self.sum.acc.is_some(), self.sum.group.is_some()].map(usize::from);
        let mut line = K::TAG.to_string();
        for f in cols
            .iter()
            .chain(&[self.rows_seen(), self.pending.rows()])
            .chain(&counts)
            .chain(&flags)
        {
            line.push_str(&format!(" {f}"));
        }
        writeln!(w, "{line}")?;
        self.pending.write_payload(w)?;
        for p in [&self.sum.acc, &self.sum.group].into_iter().flatten() {
            write_f64_run(w, p.as_slice())?;
        }
        Ok(())
    }

    /// Restores an accumulator written by
    /// [`StreamAccumulator::write_state`]. Every structural invariant is
    /// revalidated — a corrupted or truncated stream yields an error,
    /// never a panic or a silently inconsistent accumulator.
    pub fn read_state(r: &mut dyn io::BufRead) -> io::Result<Self> {
        let (ncols, ncounts) = (<K::Rows as RowBuffer>::COLS, <K::Rows as RowBuffer>::COUNTS);
        let head = parse_state_header(&read_line(r)?, K::TAG, ncols + ncounts + 4)?;
        let (cols, rest) = head.split_at(ncols);
        let (rows_seen, pending_rows) = (rest[0], rest[1]);
        let (counts, flags) = rest[2..].split_at(ncounts);
        let chunks = validate_fold_header(cols, rows_seen, pending_rows, flags[0], flags[1])?;
        let pending = K::Rows::read_payload(r, cols, pending_rows, counts)?;
        let (pr, pc) = pending.partial_shape();
        let mut read_partial = |flag: usize| -> io::Result<Option<Matrix>> {
            if flag == 0 {
                return Ok(None);
            }
            let vals = read_f64_run(r, checked_len(pr, pc)?)?;
            Matrix::from_vec(pr, pc, vals)
                .map(Some)
                .map_err(|e| bad_state(e.to_string()))
        };
        let acc = read_partial(flags[0])?;
        let group = read_partial(flags[1])?;
        Ok(StreamAccumulator {
            pending,
            sum: Partials {
                acc,
                group,
                chunks,
                kernel: PhantomData,
            },
        })
    }
}

/// Parses a state header line: the expected tag followed by exactly
/// `fields` integers.
fn parse_state_header(line: &str, tag: &str, fields: usize) -> io::Result<Vec<usize>> {
    let rest = line
        .strip_prefix(tag)
        .filter(|r| r.starts_with(' '))
        .ok_or_else(|| bad_state(format!("expected {tag:?} state header, got {line:?}")))?;
    parse_usize_line(rest, fields)
}

/// Invariants of every fold header: non-empty column counts, a pending
/// tail strictly below one chunk, folded rows on a chunk boundary, a
/// master partial present exactly when at least one merge group has
/// completed, and a group partial present exactly when the folded chunk
/// count sits off a group boundary. Violations mean the state did not
/// come from a healthy accumulator. Returns the folded chunk count.
fn validate_fold_header(
    cols: &[usize],
    rows_seen: usize,
    pending_rows: usize,
    has_acc: usize,
    has_group: usize,
) -> io::Result<usize> {
    if cols.contains(&0) {
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
    if (has_group == 1) != group_open(chunks) {
        return Err(bad_state(format!(
            "group flag {has_group} contradicts {folded} folded rows"
        )));
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrShard, GramAccumulator};

    /// Deterministic sparse fill: about a third of the entries stored,
    /// values in `(-1, 1)`.
    fn lcg_sparse(rows: usize, cols: usize, mut state: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 40) % 3 == 0 {
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            } else {
                0.0
            }
        })
    }

    /// The CSR fold's partials equal the upper triangles of the dense
    /// fold's, bit for bit, and both sit at the same chunk count.
    fn assert_upper_partials_equal(
        dense: &Partials<Gram<Matrix>>,
        csr: &Partials<Gram<CsrShard>>,
        at: &str,
    ) {
        assert_eq!(dense.chunks, csr.chunks, "{at}: chunk counts");
        for (name, d, c) in [
            ("master", &dense.acc, &csr.acc),
            ("group", &dense.group, &csr.group),
        ] {
            match (d, c) {
                (None, None) => {}
                (Some(d), Some(c)) => {
                    let m = d.cols();
                    for i in 0..m {
                        for j in i..m {
                            assert_eq!(
                                d[(i, j)].to_bits(),
                                c[(i, j)].to_bits(),
                                "{at}: {name} partial differs at ({i}, {j})"
                            );
                        }
                    }
                }
                _ => panic!("{at}: {name} partial present in only one fold"),
            }
        }
    }

    #[test]
    fn csr_chunk_partials_equal_the_dense_upper_triangles() {
        // 23 columns put full chunks on the fused SYRK path and the tail
        // on the plain one; the row count crosses a group seal.
        let (n, cols) = (GROUP_ROWS + 3 * STREAM_CHUNK_ROWS + 41, 23);
        let m = lcg_sparse(n, cols, 7);
        let csr = CsrShard::from_dense(&m);
        let push =
            |d: &mut GramAccumulator<Matrix>, s: &mut GramAccumulator<CsrShard>, r0: usize, r1| {
                let rows = m.as_slice()[r0 * cols..r1 * cols].to_vec();
                d.push_block(&Matrix::from_vec(r1 - r0, cols, rows).unwrap())
                    .unwrap();
                s.push_block(&csr.row_slice(r0, r1).unwrap()).unwrap();
            };
        for shard_rows in [1usize, 97, STREAM_CHUNK_ROWS, GROUP_ROWS + 129] {
            let (mut dense, mut sparse) = (
                GramAccumulator::<Matrix>::new(cols),
                GramAccumulator::<CsrShard>::new(cols),
            );
            for start in (0..n).step_by(shard_rows) {
                let end = (start + shard_rows).min(n);
                push(&mut dense, &mut sparse, start, end);
                let at = format!("shards of {shard_rows}, after row {end}");
                assert_upper_partials_equal(&dense.sum, &sparse.sum, &at);
            }
            assert!(dense.sum.acc.is_some(), "the stream must seal a group");
        }
        // Unit merge: fold each GROUP_ROWS unit on its own accumulator and
        // absorb in unit order.
        let (mut dense, mut sparse) = (
            GramAccumulator::<Matrix>::new(cols),
            GramAccumulator::<CsrShard>::new(cols),
        );
        for start in (0..n).step_by(GROUP_ROWS) {
            let end = (start + GROUP_ROWS).min(n);
            let (mut dense_unit, mut sparse_unit) = (
                GramAccumulator::<Matrix>::new(cols),
                GramAccumulator::<CsrShard>::new(cols),
            );
            push(&mut dense_unit, &mut sparse_unit, start, end);
            dense.absorb_unit(dense_unit).unwrap();
            sparse.absorb_unit(sparse_unit).unwrap();
            let at = format!("after absorbing the unit ending at row {end}");
            assert_upper_partials_equal(&dense.sum, &sparse.sum, &at);
        }
    }
}
