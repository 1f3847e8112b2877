//! The row buffers that re-align incoming blocks to the global chunk
//! grid: [`PendingRows`] for dense blocks, [`PendingCsrRows`] for CSR
//! blocks. Both lease their chunk copies from the [`crate::pool`]; the
//! piece-wise feeding lives in [`crate::fold::realign`].

use std::io;

use crate::fold::RowBuffer;
use crate::sparse::{CsrPattern, CsrRows};
use crate::state_text::{
    bad_state, checked_len, parse_usize_line, read_f64_run, read_line, write_f64_run,
    write_usize_line,
};
use crate::{CsrShard, Matrix, STREAM_CHUNK_ROWS};

/// Dense row buffer: rows accumulate in one row-major `Vec<f64>`.
#[derive(Debug, Clone)]
pub struct PendingRows {
    cols: usize,
    rows: usize,
    data: Vec<f64>,
}

impl PendingRows {
    pub(crate) fn new(cols: usize) -> Self {
        PendingRows {
            cols,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Rows `r0..r1` copied into a [`crate::pool`] buffer, so steady-state
    /// streaming recycles the same chunk-sized allocations instead of
    /// hitting the allocator once per chunk; the copied values are
    /// identical either way.
    fn slice(&self, r0: usize, r1: usize) -> Matrix {
        let mut buf = crate::pool::take_f64((r1 - r0) * self.cols);
        buf.extend_from_slice(&self.data[r0 * self.cols..r1 * self.cols]);
        Matrix::from_vec(r1 - r0, self.cols, buf).expect("buffer length is rows*cols")
    }
}

impl RowBuffer for PendingRows {
    type Block<'a> = &'a Matrix;
    type Chunk = Matrix;
    const COLS: usize = 1;
    const COUNTS: usize = 0;

    fn rows(&self) -> usize {
        self.rows
    }
    fn block_rows(block: &Matrix) -> usize {
        block.rows()
    }
    fn push_rows(&mut self, block: &Matrix, start: usize, n: usize) {
        self.data
            .extend_from_slice(&block.as_slice()[start * self.cols..(start + n) * self.cols]);
        self.rows += n;
    }
    fn chunk(&self, i: usize) -> Matrix {
        self.slice(i * STREAM_CHUNK_ROWS, (i + 1) * STREAM_CHUNK_ROWS)
    }
    fn drain_chunks(&mut self, n: usize) {
        self.data.drain(..n * STREAM_CHUNK_ROWS * self.cols);
        self.rows -= n * STREAM_CHUNK_ROWS;
    }
    fn remainder(&self) -> Option<Matrix> {
        (self.rows > 0).then(|| self.slice(0, self.rows))
    }
    fn partial_shape(&self) -> (usize, usize) {
        (self.cols, self.cols)
    }
    fn header(&self, cols: &mut Vec<usize>, _counts: &mut Vec<usize>) {
        cols.push(self.cols);
    }
    fn write_payload(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_f64_run(w, &self.data)
    }
    fn read_payload(
        r: &mut dyn io::BufRead,
        cols: &[usize],
        rows: usize,
        _counts: &[usize],
    ) -> io::Result<Self> {
        let data = read_f64_run(r, checked_len(rows, cols[0])?)?;
        Ok(PendingRows {
            cols: cols[0],
            rows,
            data,
        })
    }
}

/// CSR row buffer: rows accumulate as one growing CSR block.
#[derive(Debug, Clone)]
pub struct PendingCsrRows {
    cols: usize,
    /// Offsets into `col_idx`/`values`, one per buffered row plus the
    /// leading 0 (so `row_ptr.len() - 1` rows are buffered).
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl PendingCsrRows {
    pub(crate) fn new(cols: usize) -> Self {
        PendingCsrRows {
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Copies rows `r0..r1` into a standalone shard whose three backing
    /// buffers come from the [`crate::pool`] — the fold loops recycle them
    /// via [`recycle_csr_shard`] after each chunk kernel, so steady-state
    /// streaming stops hitting the allocator. The copied structure and
    /// values are identical to a freshly allocated slice.
    fn slice(&self, r0: usize, r1: usize) -> CsrShard {
        let (s, e) = (self.row_ptr[r0], self.row_ptr[r1]);
        let mut row_ptr = crate::pool::take_usize(r1 - r0 + 1);
        row_ptr.extend(self.row_ptr[r0..=r1].iter().map(|&p| p - s));
        let mut col_idx = crate::pool::take_usize(e - s);
        col_idx.extend_from_slice(&self.col_idx[s..e]);
        let mut values = crate::pool::take_f64(e - s);
        values.extend_from_slice(&self.values[s..e]);
        let pattern = CsrPattern {
            rows: r1 - r0,
            cols: self.cols,
            row_ptr,
            col_idx,
        };
        CsrShard { pattern, values }
    }
}

impl RowBuffer for PendingCsrRows {
    type Block<'a> = CsrRows<'a>;
    type Chunk = CsrShard;
    const COLS: usize = 1;
    const COUNTS: usize = 1;

    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }
    fn block_rows(block: CsrRows<'_>) -> usize {
        block.rows()
    }
    /// Copies the rows' pattern and values; a formed payload is formed
    /// here, entry by entry.
    fn push_rows(&mut self, block: CsrRows<'_>, start: usize, n: usize) {
        let pattern = block.pattern();
        let (s, e) = (pattern.row_ptr[start], pattern.row_ptr[start + n]);
        self.col_idx.extend_from_slice(&pattern.col_idx[s..e]);
        block.extend_values(&mut self.values, s..e);
        let base = *self.row_ptr.last().expect("row_ptr is never empty");
        self.row_ptr.extend(
            pattern.row_ptr[start + 1..=start + n]
                .iter()
                .map(|&p| base + p - s),
        );
    }
    fn chunk(&self, i: usize) -> CsrShard {
        self.slice(i * STREAM_CHUNK_ROWS, (i + 1) * STREAM_CHUNK_ROWS)
    }
    fn drain_chunks(&mut self, n: usize) {
        let rows = n * STREAM_CHUNK_ROWS;
        let cut = self.row_ptr[rows];
        self.col_idx.drain(..cut);
        self.values.drain(..cut);
        self.row_ptr.drain(..rows);
        for p in &mut self.row_ptr {
            *p -= cut;
        }
    }
    fn remainder(&self) -> Option<CsrShard> {
        (self.rows() > 0).then(|| self.slice(0, self.rows()))
    }
    fn partial_shape(&self) -> (usize, usize) {
        (self.cols, self.cols)
    }
    fn header(&self, cols: &mut Vec<usize>, counts: &mut Vec<usize>) {
        cols.push(self.cols);
        counts.push(self.values.len());
    }
    /// The three CSR payload lines: offsets, columns, values.
    fn write_payload(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_usize_line(w, &self.row_ptr)?;
        write_usize_line(w, &self.col_idx)?;
        write_f64_run(w, &self.values)
    }
    /// Reads the payload lines back for the declared rows and stored
    /// entries, running the full CSR structure validation of
    /// [`CsrShard::new`] so corrupted offsets or out-of-range columns
    /// surface as errors, never as a buffer that later panics mid-fold.
    fn read_payload(
        r: &mut dyn io::BufRead,
        cols: &[usize],
        rows: usize,
        counts: &[usize],
    ) -> io::Result<Self> {
        let (cols, nnz) = (cols[0], counts[0]);
        let row_ptr = parse_usize_line(&read_line(r)?, rows + 1)?;
        let col_idx = parse_usize_line(&read_line(r)?, nnz)?;
        let values = read_f64_run(r, nnz)?;
        let shard = CsrShard::new(rows, cols, row_ptr, col_idx, values)
            .map_err(|e| bad_state(e.to_string()))?;
        Ok(PendingCsrRows {
            cols,
            row_ptr: shard.pattern.row_ptr,
            col_idx: shard.pattern.col_idx,
            values: shard.values,
        })
    }
}
