//! The per-representation half of the shard container: the record
//! layout of dense and CSR containers, and the stages that encode a
//! shard into block records and decode block records back into shards.
//! Everything else about a shard file is representation-generic and
//! lives in [`crate::stream`].

use std::fmt;
use std::io;

use ivmf_interval::{CsrIntervalShard, IntervalMatrix};
use ivmf_linalg::{pool, Matrix};

use crate::binfmt;
use crate::stream::invalid_data;

/// Values per block record: blocks stay tens of megabytes — far under
/// [`binfmt::MAX_RECORD_LEN`] — and give readers re-sharding granularity
/// without per-row record overhead.
pub const BLOCK_VALUES: usize = 1 << 21;

/// What tells a dense container from a CSR one: its header and block
/// record kinds and the header's leading tag.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub header: u8,
    pub block: u8,
    pub tag: &'static str,
}

/// The per-type half of the container: the writer cuts a shard into
/// block records with [`Stage::encode`]; on the reader side decoded
/// blocks wait in the stage until a shard's worth of rows is available,
/// so the reader's shard boundaries are independent of the writer's
/// block boundaries.
pub trait Stage: Default + fmt::Debug + Send + 'static {
    type Shard;
    const LAYOUT: Layout;
    /// Encodes the block record of `shard` that begins at row `start`
    /// (at most [`BLOCK_VALUES`] cells or stored entries, at least one
    /// row); returns the row it ends before and the record payload.
    fn encode(shard: &Self::Shard, start: usize) -> io::Result<(usize, Vec<u8>)>;
    /// Rows decoded but not yet emitted.
    fn pending(&self) -> usize;
    /// Decodes one block record payload onto the end of the stage and
    /// returns its first cell that is not a proper interval (a NaN or
    /// infinite bound, or `lo > hi`) as `(row within the block, col, lo,
    /// hi)`, if any.
    fn decode(
        &mut self,
        payload: &[u8],
        cols: usize,
    ) -> io::Result<Option<(usize, usize, f64, f64)>>;
    /// Emits the next `take` staged rows into pooled buffers.
    fn emit(&mut self, take: usize, cols: usize) -> io::Result<Self::Shard>;
    /// Empties the stage for a rewind.
    fn clear(&mut self);
}

/// Staging buffer of the dense reader.
#[derive(Debug, Default)]
pub struct DenseStage {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Rows currently decoded into the stage (including already-emitted).
    rows_staged: usize,
    /// Rows already emitted from the front of the stage.
    row_off: usize,
}

impl Stage for DenseStage {
    type Shard = IntervalMatrix;
    const LAYOUT: Layout = Layout {
        header: binfmt::REC_DENSE_HEADER,
        block: binfmt::REC_DENSE_BLOCK,
        tag: "dense",
    };

    fn encode(shard: &IntervalMatrix, start: usize) -> io::Result<(usize, Vec<u8>)> {
        let cols = shard.cols();
        let block_rows = (BLOCK_VALUES / cols.max(1)).max(1);
        let end = (start + block_rows).min(shard.rows());
        let (s, e) = (start * cols, end * cols);
        let (lo, hi) = (shard.lo().as_slice(), shard.hi().as_slice());
        Ok((
            end,
            binfmt::encode_dense_rows(end - start, &lo[s..e], &hi[s..e])?,
        ))
    }

    fn pending(&self) -> usize {
        self.rows_staged - self.row_off
    }

    fn decode(
        &mut self,
        payload: &[u8],
        cols: usize,
    ) -> io::Result<Option<(usize, usize, f64, f64)>> {
        let start = self.lo.len();
        let (rows, bad) =
            binfmt::decode_dense_block_into(payload, cols, &mut self.lo, &mut self.hi)?;
        self.rows_staged += rows;
        Ok(bad.map(|i| (i / cols, i % cols, self.lo[start + i], self.hi[start + i])))
    }

    fn emit(&mut self, take: usize, cols: usize) -> io::Result<IntervalMatrix> {
        let n = take * cols;
        let start = self.row_off * cols;
        let mut lo = pool::take_f64(n);
        lo.extend_from_slice(&self.lo[start..start + n]);
        let mut hi = pool::take_f64(n);
        hi.extend_from_slice(&self.hi[start..start + n]);
        self.row_off += take;
        // Compact once the emitted prefix dominates the stage, keeping
        // the staged residue (and thus peak memory) bounded by one block.
        if self.row_off * 2 >= self.rows_staged {
            self.lo.drain(..self.row_off * cols);
            self.hi.drain(..self.row_off * cols);
            self.rows_staged -= self.row_off;
            self.row_off = 0;
        }
        IntervalMatrix::from_bounds(
            Matrix::from_vec(take, cols, lo).map_err(|e| invalid_data(e.to_string()))?,
            Matrix::from_vec(take, cols, hi).map_err(|e| invalid_data(e.to_string()))?,
        )
        .map_err(|e| invalid_data(e.to_string()))
    }

    fn clear(&mut self) {
        self.lo.clear();
        self.hi.clear();
        self.rows_staged = 0;
        self.row_off = 0;
    }
}

/// Staging buffer of the CSR reader. `row_ptr` holds absolute offsets
/// into the staged entry arrays (leading 0), exactly as
/// [`binfmt::decode_csr_block_into`] stacks them.
#[derive(Debug, Default)]
pub struct CsrStage {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rows_staged: usize,
    row_off: usize,
}

impl Stage for CsrStage {
    type Shard = CsrIntervalShard;
    const LAYOUT: Layout = Layout {
        header: binfmt::REC_CSR_HEADER,
        block: binfmt::REC_CSR_BLOCK,
        tag: "csr",
    };

    fn encode(shard: &CsrIntervalShard, start: usize) -> io::Result<(usize, Vec<u8>)> {
        let row_ptr = shard.lo_shard().row_ptr();
        let base = row_ptr[start];
        let mut end = start + 1;
        while end < shard.rows() && row_ptr[end + 1] - base < BLOCK_VALUES {
            end += 1;
        }
        let payload = if start == 0 && end == shard.rows() {
            binfmt::encode_csr_block(shard)?
        } else {
            let block = shard
                .row_slice(start, end)
                .map_err(|e| invalid_data(e.to_string()))?;
            binfmt::encode_csr_block(&block)?
        };
        Ok((end, payload))
    }

    fn pending(&self) -> usize {
        self.rows_staged - self.row_off
    }

    fn decode(
        &mut self,
        payload: &[u8],
        cols: usize,
    ) -> io::Result<Option<(usize, usize, f64, f64)>> {
        let (first_row, start) = (self.rows_staged, self.lo.len());
        let (rows, bad) = binfmt::decode_csr_block_into(
            payload,
            cols,
            &mut self.row_ptr,
            &mut self.col_idx,
            &mut self.lo,
            &mut self.hi,
        )?;
        self.rows_staged += rows;
        Ok(bad.map(|i| {
            let e = start + i;
            // Entry `e` lies in the block row after every row ending at or
            // before it.
            let row = self.row_ptr[first_row + 1..].partition_point(|&p| p <= e);
            (row, self.col_idx[e], self.lo[e], self.hi[e])
        }))
    }

    /// Emits the next `take` rows with their offsets rebased to 0. A
    /// shard of every staged row takes the staged arrays themselves, and
    /// the stage restarts on pooled buffers of their sizes.
    fn emit(&mut self, take: usize, cols: usize) -> io::Result<CsrIntervalShard> {
        if self.row_off == 0 && take == self.rows_staged {
            let row_ptr = hand_over(&mut self.row_ptr, pool::take_usize);
            let col_idx = hand_over(&mut self.col_idx, pool::take_usize);
            let lo = hand_over(&mut self.lo, pool::take_f64);
            let hi = hand_over(&mut self.hi, pool::take_f64);
            self.rows_staged = 0;
            return CsrIntervalShard::new(take, cols, row_ptr, col_idx, lo, hi)
                .map_err(|e| invalid_data(e.to_string()));
        }
        let (r0, r1) = (self.row_off, self.row_off + take);
        let (s, e) = (self.row_ptr[r0], self.row_ptr[r1]);
        let mut row_ptr = pool::take_usize(take + 1);
        row_ptr.extend(self.row_ptr[r0..=r1].iter().map(|&p| p - s));
        let mut col_idx = pool::take_usize(e - s);
        col_idx.extend_from_slice(&self.col_idx[s..e]);
        let mut lo = pool::take_f64(e - s);
        lo.extend_from_slice(&self.lo[s..e]);
        let mut hi = pool::take_f64(e - s);
        hi.extend_from_slice(&self.hi[s..e]);
        self.row_off = r1;
        // Compact once the emitted prefix dominates the stage, keeping
        // the staged residue (and thus peak memory) bounded by one block.
        if self.row_off * 2 >= self.rows_staged {
            let cut = self.row_ptr[self.row_off];
            self.col_idx.drain(..cut);
            self.lo.drain(..cut);
            self.hi.drain(..cut);
            self.row_ptr.drain(..self.row_off);
            for p in self.row_ptr.iter_mut() {
                *p -= cut;
            }
            self.rows_staged -= self.row_off;
            self.row_off = 0;
        }
        CsrIntervalShard::new(take, cols, row_ptr, col_idx, lo, hi)
            .map_err(|e| invalid_data(e.to_string()))
    }

    fn clear(&mut self) {
        self.row_ptr.clear();
        self.col_idx.clear();
        self.lo.clear();
        self.hi.clear();
        self.rows_staged = 0;
        self.row_off = 0;
    }
}

/// Moves `buf`'s contents out, leaving in its place an empty buffer from
/// `take` with room for as many elements.
fn hand_over<T>(buf: &mut Vec<T>, take: fn(usize) -> Vec<T>) -> Vec<T> {
    let fresh = take(buf.len());
    std::mem::replace(buf, fresh)
}
