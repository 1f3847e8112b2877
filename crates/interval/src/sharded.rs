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
//! * [`RowShardedIntervalMatrix`] — an ordered set of interval row-block
//!   shards behind the same row-block idea as the dense
//!   [`IntervalMatrix`] (whose bounds implement
//!   [`RowBlocks`](ivmf_linalg::RowBlocks) directly),
//! * [`StreamingIntervalGram`] — the flavour-dispatched streaming
//!   accumulator: per shard it feeds the bound (or block-converted
//!   midpoint–radius) rows into the scalar accumulators, and
//!   [`StreamingIntervalGram::finish`] applies the same entry-wise
//!   envelope / radius combination as the dense operators,
//! * [`RowShardSource`] — the lazy-loading counterpart for shard streams
//!   that do not fit in memory (implemented by the chunked disk loaders
//!   in `ivmf-data`).
//!
//! Because the scalar accumulators re-align arithmetic to fixed global
//! chunk boundaries and the interval-specific steps (midpoint, radius,
//! envelope, radius clamp) are all entry-wise, the streamed interval Gram
//! is **bitwise identical for every shard layout and thread count**, and
//! for inputs of at most [`ivmf_linalg::STREAM_CHUNK_ROWS`] rows it
//! coincides bitwise with the one-shot
//! [`IntervalMatrix::interval_gram_fast`].

use ivmf_linalg::{CrossGramAccumulator, GramAccumulator, Matrix, RowBlocks};

use crate::{exact_interval_forced, IntervalError, IntervalMatrix, Result, MR_MIN_WORK};

/// Default rows per shard when the caller does not specify one and
/// `IVMF_SHARD_ROWS` is unset: large enough that per-shard overhead is
/// negligible, small enough that one shard of a paper-scale wide matrix
/// fits comfortably in cache-friendly memory.
pub const DEFAULT_SHARD_ROWS: usize = 4096;

/// The configured shard size: `IVMF_SHARD_ROWS` when set (panicking on a
/// malformed value, like every `IVMF_*` knob), [`DEFAULT_SHARD_ROWS`]
/// otherwise. Shard size never changes results — only peak memory and
/// append granularity.
pub fn configured_shard_rows() -> usize {
    ivmf_env::shard_rows().unwrap_or(DEFAULT_SHARD_ROWS)
}

/// True when the size-dispatched interval Gram of a `rows × cols` matrix
/// takes the midpoint–radius enclosure (the exact four-product envelope
/// otherwise) — the same rule as
/// [`IntervalMatrix::interval_gram_fast`]: work `m·n·m` at or above
/// [`MR_MIN_WORK`] and `IVMF_EXACT_INTERVAL` not set.
pub fn use_mr_gram(rows: usize, cols: usize) -> bool {
    cols * rows * cols >= MR_MIN_WORK && !exact_interval_forced()
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

/// An ordered set of interval row-block shards forming one (virtual)
/// interval matrix.
///
/// Shards may have any positive row count; all share one column count.
/// The shard layout is invisible in results — every consumer re-aligns
/// its arithmetic to fixed global chunk boundaries — so it only bounds
/// peak per-block memory and sets the granularity of
/// [`RowShardedIntervalMatrix::append_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowShardedIntervalMatrix {
    shards: Vec<IntervalMatrix>,
    rows: usize,
    cols: usize,
}

impl RowShardedIntervalMatrix {
    /// Builds a sharded interval matrix from explicit shards (non-empty
    /// list, no zero-row shards, consistent column counts).
    pub fn from_shards(shards: Vec<IntervalMatrix>) -> Result<Self> {
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
                    rhs: s.shape(),
                });
            }
            rows += s.rows();
        }
        Ok(RowShardedIntervalMatrix { shards, rows, cols })
    }

    /// Splits a dense interval matrix into shards of at most `shard_rows`
    /// rows (the last shard takes the remainder).
    pub fn from_dense(m: &IntervalMatrix, shard_rows: usize) -> Result<Self> {
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
        let rows = m.rows();
        let mut shards = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + shard_rows).min(rows);
            shards.push(m.row_slice(start, end)?);
            start = end;
        }
        RowShardedIntervalMatrix::from_shards(shards)
    }

    /// [`RowShardedIntervalMatrix::from_dense`] with the configured
    /// default shard size (`IVMF_SHARD_ROWS`, or [`DEFAULT_SHARD_ROWS`]).
    pub fn from_dense_env(m: &IntervalMatrix) -> Result<Self> {
        RowShardedIntervalMatrix::from_dense(m, configured_shard_rows())
    }

    /// Appends a new block of rows as its own shard at the bottom.
    pub fn append_rows(&mut self, rows: IntervalMatrix) -> Result<()> {
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
    pub fn shards(&self) -> &[IntervalMatrix] {
        &self.shards
    }

    /// Materializes the dense interval matrix (row-order concatenation).
    pub fn to_dense(&self) -> IntervalMatrix {
        let mut lo = Vec::with_capacity(self.rows * self.cols);
        let mut hi = Vec::with_capacity(self.rows * self.cols);
        for s in &self.shards {
            lo.extend_from_slice(s.lo().as_slice());
            hi.extend_from_slice(s.hi().as_slice());
        }
        IntervalMatrix::from_bounds(
            Matrix::from_vec(self.rows, self.cols, lo).expect("validated shard shapes"),
            Matrix::from_vec(self.rows, self.cols, hi).expect("validated shard shapes"),
        )
        .expect("validated shard shapes")
    }

    /// The midpoint matrix, assembled shard by shard (entry-wise, so it is
    /// bitwise identical to [`IntervalMatrix::mid`] of the dense matrix)
    /// without materializing the dense bounds.
    pub fn mid(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for s in &self.shards {
            data.extend_from_slice(s.mid().as_slice());
        }
        Matrix::from_vec(self.rows, self.cols, data).expect("validated shard shapes")
    }

    /// The lower bounds as a scalar row-block stream.
    pub fn lo_blocks(&self) -> BoundBlocks<'_> {
        BoundBlocks {
            shards: &self.shards,
            hi: false,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// The upper bounds as a scalar row-block stream.
    pub fn hi_blocks(&self) -> BoundBlocks<'_> {
        BoundBlocks {
            shards: &self.shards,
            hi: true,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// The streamed interval Gram matrix `M†ᵀ M†` — same flavour dispatch
    /// as [`IntervalMatrix::interval_gram_fast`], bitwise identical for
    /// every shard layout.
    pub fn interval_gram_streamed(&self) -> Result<IntervalMatrix> {
        let mut acc = StreamingIntervalGram::new(self.rows, self.cols);
        for s in &self.shards {
            acc.push_shard(s)?;
        }
        acc.finish()
    }
}

/// One bound of a sharded interval matrix viewed as a scalar row-block
/// stream (implements [`ivmf_linalg::RowBlocks`], so the scalar streaming
/// kernels consume it directly).
#[derive(Debug, Clone, Copy)]
pub struct BoundBlocks<'a> {
    shards: &'a [IntervalMatrix],
    hi: bool,
    rows: usize,
    cols: usize,
}

impl RowBlocks for BoundBlocks<'_> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_block(
        &self,
        f: &mut dyn FnMut(&Matrix) -> ivmf_linalg::Result<()>,
    ) -> ivmf_linalg::Result<()> {
        for s in self.shards {
            f(if self.hi { s.hi() } else { s.lo() })?;
        }
        Ok(())
    }
}

/// Streaming accumulator for the interval Gram matrix `M†ᵀ M†`.
///
/// The flavour is fixed at construction from the **total** row count (so
/// it matches what [`IntervalMatrix::interval_gram_fast`] would pick for
/// the dense matrix) and the live `IVMF_EXACT_INTERVAL` switch:
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
/// [`StreamingIntervalGram::finish`] is non-consuming, so new shards can
/// keep arriving afterwards; continuing the fold performs exactly the
/// operation sequence of a cold recompute over the extended matrix
/// (bitwise — the incremental-update contract the decomposition
/// pipeline's `append_rows` is built on).
#[derive(Debug, Clone)]
pub struct StreamingIntervalGram {
    cols: usize,
    rows_seen: usize,
    flavour: Flavour,
}

#[derive(Debug, Clone)]
enum Flavour {
    Exact {
        lo: GramAccumulator,
        hi: GramAccumulator,
        cross: CrossGramAccumulator,
    },
    MidRad {
        mid: GramAccumulator,
        sum: GramAccumulator,
    },
}

impl StreamingIntervalGram {
    /// An empty accumulator for a stream of `total_rows × cols` (the total
    /// row count picks the flavour; see the type docs).
    pub fn new(total_rows: usize, cols: usize) -> Self {
        StreamingIntervalGram::with_flavour(cols, use_mr_gram(total_rows, cols))
    }

    /// An empty accumulator with the flavour given explicitly instead of
    /// derived from a total row count. A merge-group unit folded on its
    /// own accumulator (see [`StreamingIntervalGram::absorb_unit`]) must
    /// take the flavour the whole stream picked: re-deriving it from the
    /// unit's ≤ one group of rows could choose the other flavour.
    pub fn with_flavour(cols: usize, mid_rad: bool) -> Self {
        let flavour = if mid_rad {
            Flavour::MidRad {
                mid: GramAccumulator::new(cols),
                sum: GramAccumulator::new(cols),
            }
        } else {
            Flavour::Exact {
                lo: GramAccumulator::new(cols),
                hi: GramAccumulator::new(cols),
                cross: CrossGramAccumulator::new(cols, cols),
            }
        };
        StreamingIntervalGram {
            cols,
            rows_seen: 0,
            flavour,
        }
    }

    /// True when this accumulator runs the midpoint–radius enclosure
    /// (false: the exact four-product envelope).
    pub fn is_mid_rad(&self) -> bool {
        matches!(self.flavour, Flavour::MidRad { .. })
    }

    /// Total rows pushed so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Feeds the next interval shard (row order across calls).
    pub fn push_shard(&mut self, shard: &IntervalMatrix) -> Result<()> {
        if shard.cols() != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_gram_accumulate",
                lhs: (self.rows_seen, self.cols),
                rhs: shard.shape(),
            });
        }
        match &mut self.flavour {
            Flavour::Exact { lo, hi, cross } => {
                lo.push_block(shard.lo())?;
                hi.push_block(shard.hi())?;
                cross.push_blocks(shard.lo(), shard.hi())?;
            }
            Flavour::MidRad { mid, sum } => {
                // Block midpoint–radius conversion is entry-wise, so the
                // blocks of the converted streams are exactly the
                // corresponding row blocks of the dense conversion.
                let mid_block = shard.mid();
                let rad_block = shard.spans().map(|s| 0.5 * s.abs());
                let sum_block = mid_block.map(f64::abs).add(&rad_block)?;
                mid.push_block(&mid_block)?;
                sum.push_block(&sum_block)?;
            }
        }
        self.rows_seen += shard.rows();
        Ok(())
    }

    /// The interval Gram of every row seen so far (non-consuming).
    pub fn finish(&self) -> Result<IntervalMatrix> {
        let m = self.cols;
        match &self.flavour {
            Flavour::Exact { lo, hi, cross } => {
                let t1 = lo.finish();
                let t4 = hi.finish();
                let t2 = cross.finish()?;
                // Same envelope (values and fold order) as the dense
                // `IntervalMatrix::interval_gram`.
                let mut glo = Matrix::zeros(m, m);
                let mut ghi = Matrix::zeros(m, m);
                for i in 0..m {
                    for j in 0..m {
                        let vals = [t1[(i, j)], t2[(i, j)], t2[(j, i)], t4[(i, j)]];
                        glo[(i, j)] = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                        ghi[(i, j)] = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    }
                }
                IntervalMatrix::from_bounds(glo, ghi)
            }
            Flavour::MidRad { mid, sum } => {
                let p1 = mid.finish();
                let p2 = sum.finish();
                // Same radius clamp and bound reconstruction as
                // `MrMatrix::gram().to_interval()`.
                let rad = p2.sub(&p1.map(f64::abs))?.map(|x| x.max(0.0));
                let glo = p1.sub(&rad)?;
                let ghi = p1.add(&rad)?;
                IntervalMatrix::from_bounds(glo, ghi)
            }
        }
    }

    /// Absorbs the state of an accumulator that folded the next
    /// ≤ [`ivmf_linalg::streaming::GROUP_ROWS`]-row work unit of the same interval
    /// stream, delegating to the inner scalar accumulators'
    /// [`GramAccumulator::absorb_unit`] (so the merged state is bitwise
    /// the single-process state). The flavours must match — a unit folded
    /// under the wrong flavour holds incompatible partials.
    pub fn absorb_unit(&mut self, other: StreamingIntervalGram) -> Result<()> {
        if other.cols != self.cols {
            return Err(IntervalError::DimensionMismatch {
                op: "absorb_unit",
                lhs: (self.rows_seen, self.cols),
                rhs: (other.rows_seen, other.cols),
            });
        }
        let unit_rows = other.rows_seen;
        match (&mut self.flavour, other.flavour) {
            (
                Flavour::Exact { lo, hi, cross },
                Flavour::Exact {
                    lo: olo,
                    hi: ohi,
                    cross: ocross,
                },
            ) => {
                lo.absorb_unit(olo)?;
                hi.absorb_unit(ohi)?;
                cross.absorb_unit(ocross)?;
            }
            (
                Flavour::MidRad { mid, sum },
                Flavour::MidRad {
                    mid: omid,
                    sum: osum,
                },
            ) => {
                mid.absorb_unit(omid)?;
                sum.absorb_unit(osum)?;
            }
            _ => {
                return Err(IntervalError::Source(
                    "absorb_unit flavour mismatch: the unit was folded under a different interval-Gram flavour".to_string(),
                ));
            }
        }
        self.rows_seen += unit_rows;
        Ok(())
    }

    /// Serializes the complete accumulator state — flavour plus every
    /// inner scalar accumulator — as bit-exact state text. The midpoint–
    /// radius flavour **must** persist its inner accumulators rather than
    /// any finished interval result: the mid/sum conversion is not
    /// bit-exactly invertible, so only the raw pending buffers let a
    /// restored accumulator continue the fold bitwise.
    pub fn write_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let tag = self.is_mid_rad() as u8;
        writeln!(w, "intervalgram {} {} {}", self.cols, self.rows_seen, tag)?;
        match &self.flavour {
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

    /// Restores an accumulator written by
    /// [`StreamingIntervalGram::write_state`], revalidating that every
    /// inner accumulator agrees with the header on shape and row count
    /// (so a spliced or corrupted state errors instead of producing an
    /// inconsistent fold).
    pub fn read_state(r: &mut dyn std::io::BufRead) -> std::io::Result<Self> {
        let (cols, rows_seen, mid_rad) = read_interval_gram_header(r, "intervalgram")?;
        let flavour = if mid_rad {
            let mid = GramAccumulator::read_state(r)?;
            let sum = GramAccumulator::read_state(r)?;
            check_inner(
                &[mid.cols(), sum.cols()],
                cols,
                &[mid.rows_seen(), sum.rows_seen()],
                rows_seen,
            )?;
            Flavour::MidRad { mid, sum }
        } else {
            let lo = GramAccumulator::read_state(r)?;
            let hi = GramAccumulator::read_state(r)?;
            let cross = CrossGramAccumulator::read_state(r)?;
            check_inner(
                &[lo.cols(), hi.cols(), cross.a_cols(), cross.b_cols()],
                cols,
                &[lo.rows_seen(), hi.rows_seen(), cross.rows_seen()],
                rows_seen,
            )?;
            Flavour::Exact { lo, hi, cross }
        };
        Ok(StreamingIntervalGram {
            cols,
            rows_seen,
            flavour,
        })
    }
}

/// Parses the `<tag> <cols> <rows_seen> <flavour>` header shared by the
/// dense and sparse interval-Gram accumulator states.
pub(crate) fn read_interval_gram_header(
    r: &mut dyn std::io::BufRead,
    tag: &str,
) -> std::io::Result<(usize, usize, bool)> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "unexpected end of stream while reading state",
        ));
    }
    let mut t = line.split_ascii_whitespace();
    if t.next() != Some(tag) {
        return Err(bad(format!("expected {tag:?} state header, got {line:?}")));
    }
    let mut field = || -> std::io::Result<usize> {
        t.next()
            .ok_or_else(|| bad("truncated state header".to_string()))?
            .parse()
            .map_err(|_| bad("malformed state header field".to_string()))
    };
    let (cols, rows_seen, flavour) = (field()?, field()?, field()?);
    if t.next().is_some() {
        return Err(bad("trailing tokens in state header".to_string()));
    }
    if cols == 0 {
        return Err(bad(
            "interval accumulator state has zero columns".to_string()
        ));
    }
    if flavour > 1 {
        return Err(bad(format!("unknown flavour tag {flavour}")));
    }
    Ok((cols, rows_seen, flavour == 1))
}

/// Checks every inner accumulator's column and row count against the
/// outer header.
pub(crate) fn check_inner(
    inner_cols: &[usize],
    cols: usize,
    inner_rows: &[usize],
    rows_seen: usize,
) -> std::io::Result<()> {
    if inner_cols.iter().any(|&c| c != cols) || inner_rows.iter().any(|&n| n != rows_seen) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "inner accumulator state disagrees with the interval-Gram header",
        ));
    }
    Ok(())
}

impl IntervalMatrix {
    /// The interval Gram `M†ᵀ M†` through the streaming accumulator (one
    /// dense block in, chunk-realigned arithmetic inside): bitwise
    /// identical to streaming the same rows in any shard layout, and to
    /// [`IntervalMatrix::interval_gram_fast`] whenever the matrix fits in
    /// one [`ivmf_linalg::STREAM_CHUNK_ROWS`]-row chunk.
    pub fn interval_gram_streamed(&self) -> Result<IntervalMatrix> {
        let mut acc = StreamingIntervalGram::new(self.rows(), self.cols());
        acc.push_shard(self)?;
        acc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_interval(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lo = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0..2.0));
        let span = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.0..1.0));
        let hi = lo.add(&span).unwrap();
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
        // 70×70 is above MR_MIN_WORK (70·70·70 ≥ 64³) → midpoint–radius —
        // as long as no concurrently running test has IVMF_EXACT_INTERVAL
        // pinned, hence the shared lock.
        let _guard = crate::test_env::EXACT_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
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
        // Mutating IVMF_EXACT_INTERVAL: the shared lock serializes this
        // writer against every flavour-sensitive reader in the binary.
        let _guard = crate::test_env::EXACT_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let m = random_interval(7, 70, 70);
        std::env::set_var(crate::EXACT_INTERVAL_ENV, "1");
        let pinned = StreamingIntervalGram::new(70, 70);
        let streamed = m.interval_gram_streamed().unwrap();
        let oracle = m.interval_gram().unwrap();
        std::env::remove_var(crate::EXACT_INTERVAL_ENV);
        assert!(!pinned.is_mid_rad());
        assert_bitwise(&streamed, &oracle, "pinned exact, one chunk");
    }

    #[test]
    fn streamed_gram_is_incremental_bitwise() {
        let head = random_interval(8, 60, 30);
        let tail = random_interval(9, 17, 30);
        let total_rows = 77;

        let mut acc = StreamingIntervalGram::new(total_rows, 30);
        acc.push_shard(&head).unwrap();
        let _snapshot = acc.finish().unwrap(); // non-consuming
        acc.push_shard(&tail).unwrap();
        let incremental = acc.finish().unwrap();
        assert_eq!(acc.rows_seen(), total_rows);

        let mut cold = StreamingIntervalGram::new(total_rows, 30);
        cold.push_shard(&head).unwrap();
        cold.push_shard(&tail).unwrap();
        assert_bitwise(&incremental, &cold.finish().unwrap(), "incremental vs cold");

        // Shape mismatches are rejected.
        assert!(acc.push_shard(&random_interval(10, 3, 5)).is_err());
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
            acc.push_shard(&head).unwrap();
            let mut buf = Vec::new();
            acc.write_state(&mut buf).unwrap();
            let mut restored =
                StreamingIntervalGram::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
            assert_eq!(restored.is_mid_rad(), acc.is_mid_rad(), "{label}");
            assert_eq!(restored.rows_seen(), acc.rows_seen(), "{label}");
            acc.push_shard(&tail).unwrap();
            restored.push_shard(&tail).unwrap();
            assert_bitwise(
                &restored.finish().unwrap(),
                &acc.finish().unwrap(),
                &format!("continued interval gram ({label})"),
            );
        }
    }

    #[test]
    fn interval_gram_read_state_rejects_corrupted_text() {
        let m = random_interval(23, 50, 5);
        let mut acc = StreamingIntervalGram::new(50, 5);
        acc.push_shard(&m).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let corrupt = |b: &[u8]| {
            StreamingIntervalGram::read_state(&mut std::io::BufReader::new(b)).unwrap_err()
        };
        corrupt(&buf[..buf.len() / 2]); // truncation
        let mut spam = buf.clone();
        spam[.."intervalgram".len()].copy_from_slice(b"intervalspam");
        corrupt(&spam); // tag
        let header_len = buf.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(&buf[..header_len], b"intervalgram 5 50 0");
        let mut flavour = buf.clone();
        flavour[header_len - 1] = b'2';
        corrupt(&flavour); // unknown flavour
                           // Header/inner disagreement: bump the outer row count.
        let mut bumped = buf.clone();
        bumped[..header_len].copy_from_slice(b"intervalgram 5 51 0");
        corrupt(&bumped);
    }
}
