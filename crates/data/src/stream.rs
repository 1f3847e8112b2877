//! Chunked disk loaders for row-sharded interval matrices.
//!
//! The decomposition pipeline's streaming stages consume interval matrices
//! one row-block shard at a time, so a matrix never has to fit in memory —
//! it only has to *stream*. This module provides the disk side of that
//! contract, for dense rows and for sparse CSR rows that store only the
//! nonzero entries:
//!
//! * [`ShardWriter`] / [`write_interval_matrix`] and [`CsrShardWriter`] /
//!   [`write_csr_matrix`] — write a matrix, incrementally or in one call,
//! * [`ShardReader`] / [`CsrShardReader`] — read such a file back in
//!   shards of a configurable number of rows; they implement
//!   [`RowShardSource`] / [`CsrShardSource`], so they plug directly into
//!   `ivmf_core::Pipeline::new_streaming{,_csr}` for end-to-end
//!   out-of-core decomposition of the Gram-route algorithms,
//! * [`load_sharded`] — materializes the whole file as an in-memory
//!   [`ShardedIntervalMatrix`] of either shard type ([`StoredShard`]),
//! * [`stream_interval_gram`] — one-pass out-of-core interval Gram in
//!   `O(record + m²)` peak memory regardless of the row count, bitwise
//!   identical to the in-memory streamed Gram in either representation
//!   (and to the dense fast path for matrices within one accumulation
//!   chunk).
//!
//! ## File format
//!
//! Every shard file is a binary container of [`crate::binfmt`] ("ivmf
//! shards v1"): the magic, one header record (`dense <rows> <cols>` or
//! `csr <rows> <cols>`), block records holding raw little-endian runs,
//! and an end record. Values are stored bit-exactly, so loading
//! reproduces every bit. Writers cut blocks of at most `BLOCK_VALUES`
//! (2²¹) cells — stored entries for CSR — per record; readers re-shard
//! them to the consumer's `shard_rows` through a staging buffer, and
//! lease their scratch from [`ivmf_linalg::pool`], so steady-state
//! ingest allocates nothing. A reader decodes one whole record at a time
//! whatever its `shard_rows`, so its memory is bounded by the writer's
//! record size (see [`ShardReader`]). One private core below owns the
//! container layout for both the dense and the CSR types.
//!
//! [`stream_interval_gram`] additionally wraps the reader in [`crate::prefetch`]'s background decoder
//! (`IVMF_PREFETCH`), overlapping decode of shard *i+1* with the Gram
//! fold of shard *i*; delivery stays strictly in order, so results are
//! bitwise invariant to the prefetch depth too.
//!
//! ## Crash safety and error reporting
//!
//! Writers never leave a torn committed file: rows stream into a
//! temporary sibling that only `finish` (end record, flush, fsync,
//! rename) promotes to the destination path — a writer dropped
//! mid-stream removes its temp and leaves any previously committed file
//! untouched.
//!
//! Readers treat the file as untrusted input. A file without the magic,
//! a malformed or wrong-kind header, a dimension overflow, a premature
//! end of file, rows beyond the declared count and a cell that is not a
//! proper interval (a NaN or ±Inf bound, or `lo > hi`) are each rejected
//! with a typed [`StreamError`] carried inside the returned `io::Error`
//! (downcast via [`StreamError::from_io`]); record checksums and the
//! record length cap reject corrupted bytes before they are decoded.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use ivmf_env::ShardFormat;
use ivmf_interval::{
    CsrIntervalShard, CsrShardSource, IntervalError, IntervalMatrix, IntervalShard, RowShardSource,
    ShardSource, ShardedIntervalMatrix, StreamingIntervalGram,
};

use crate::binfmt;
use crate::prefetch::Prefetch;
use crate::stage::{CsrStage, DenseStage, Layout, Stage};

pub(crate) fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Typed parse/validation errors raised by the stream readers.
///
/// Each variant names the file and (where applicable) the 0-based data
/// row that failed. The readers return these wrapped in an `io::Error`
/// (kind `UnexpectedEof` for [`StreamError::UnexpectedEof`],
/// `InvalidData` otherwise); recover the typed value with
/// [`StreamError::from_io`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The file is not an "ivmf shards v1" container, or its header
    /// record is not a valid `dense <rows> <cols>` (dense) or
    /// `csr <rows> <cols>` (sparse) header.
    MalformedHeader {
        /// File whose header failed to parse.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The declared `rows × cols` element count overflows `usize`.
    DimensionOverflow {
        /// File whose header overflowed.
        path: String,
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// The file ended before the declared rows and the end record were
    /// read.
    UnexpectedEof {
        /// File that ended early.
        path: String,
        /// 0-based row at which data ran out.
        row: usize,
    },
    /// The header record carries tokens past its dimensions, or the
    /// container holds rows beyond the declared count.
    TrailingData {
        /// File containing the surplus.
        path: String,
        /// The declared row count for surplus rows (`usize::MAX` for the
        /// header).
        row: usize,
    },
    /// A stored cell is not a proper interval: a bound is NaN or
    /// infinite, or `lo > hi`.
    InvalidCell {
        /// File holding the cell.
        path: String,
        /// 0-based row of the cell in the whole matrix.
        row: usize,
        /// 0-based column of the cell.
        col: usize,
        /// The stored lower bound.
        lo: f64,
        /// The stored upper bound.
        hi: f64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::MalformedHeader { path, detail } => {
                write!(f, "{path}: malformed header: {detail}")
            }
            StreamError::DimensionOverflow { path, rows, cols } => {
                write!(f, "{path}: {rows} x {cols} elements overflow usize")
            }
            StreamError::UnexpectedEof { path, row } => {
                write!(f, "{path}: unexpected end of file at row {row}")
            }
            StreamError::TrailingData { path, row } => {
                if *row == usize::MAX {
                    write!(f, "{path}: trailing tokens after the header")
                } else {
                    write!(f, "{path}: data past the declared {row} rows")
                }
            }
            StreamError::InvalidCell {
                path,
                row,
                col,
                lo,
                hi,
            } => write!(
                f,
                "{path}: cell ({row}, {col}) holds [{lo}, {hi}], not a finite interval with lo <= hi"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl StreamError {
    /// Wraps the error in an `io::Error` with the matching kind.
    fn into_io(self) -> io::Error {
        let kind = match self {
            StreamError::UnexpectedEof { .. } => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, self)
    }

    /// Recovers the typed error carried by an `io::Error` returned from
    /// this module's readers, if any.
    pub fn from_io(err: &io::Error) -> Option<&StreamError> {
        err.get_ref().and_then(|e| e.downcast_ref::<StreamError>())
    }
}

/// Parses and validates a `<tag> <rows> <cols>` header, rejecting a
/// wrong tag, missing/unparseable fields, trailing tokens and element
/// counts that overflow `usize` (each cell stores two `f64` bounds, hence
/// the factor of 2).
fn parse_header(path: &Path, header: &str, tag: &str) -> io::Result<(usize, usize)> {
    let display = path.display().to_string();
    let malformed = |detail: &str| {
        StreamError::MalformedHeader {
            path: display.clone(),
            detail: detail.to_string(),
        }
        .into_io()
    };
    let mut it = header.split_whitespace();
    if it.next() != Some(tag) {
        return Err(malformed(&format!("expected leading '{tag}' token")));
    }
    let rows: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed("missing or unparseable row count"))?;
    let cols: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed("missing or unparseable column count"))?;
    if it.next().is_some() {
        return Err(StreamError::TrailingData {
            path: display,
            row: usize::MAX,
        }
        .into_io());
    }
    if rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(2))
        .is_none()
    {
        return Err(StreamError::DimensionOverflow {
            path: display,
            rows,
            cols,
        }
        .into_io());
    }
    Ok((rows, cols))
}

/// The write half of the container core: magic and header record on
/// create, shape and row-count checks plus block records on push, end
/// record and crash-safe commit on finish. Rows stream into a temporary
/// sibling of the destination; dropping the writer before `finish`
/// removes it.
#[derive(Debug)]
struct ContainerWriter {
    w: Option<BufWriter<File>>,
    path: PathBuf,
    tmp: PathBuf,
    layout: Layout,
    rows: usize,
    cols: usize,
    rows_written: usize,
}

impl ContainerWriter {
    fn create(path: &Path, layout: Layout, rows: usize, cols: usize) -> io::Result<Self> {
        let tmp = crate::atomic::temp_sibling(path);
        let mut core = ContainerWriter {
            w: Some(BufWriter::new(File::create(&tmp)?)),
            path: path.to_path_buf(),
            tmp,
            layout,
            rows,
            cols,
            rows_written: 0,
        };
        // An error propagates with `?`; Drop removes the temp file.
        let header = format!("{} {rows} {cols}\n", layout.tag);
        let w = core.writer();
        w.write_all(&binfmt::MAGIC)?;
        binfmt::write_record(w, layout.header, header.as_bytes())?;
        Ok(core)
    }

    fn writer(&mut self) -> &mut BufWriter<File> {
        self.w.as_mut().expect("writer is only taken by finish")
    }

    /// Appends a `rows × cols` shard as block records. `block(start)`
    /// encodes the block that begins at shard row `start` and returns the
    /// row it ends before together with the record payload.
    fn push(
        &mut self,
        rows: usize,
        cols: usize,
        mut block: impl FnMut(usize) -> io::Result<(usize, Vec<u8>)>,
    ) -> io::Result<()> {
        if cols != self.cols {
            return Err(invalid_data(format!(
                "shard has {cols} columns, file declares {}",
                self.cols
            )));
        }
        if self.rows_written + rows > self.rows {
            return Err(invalid_data(format!(
                "shard of {rows} rows overflows the declared {} rows ({} already written)",
                self.rows, self.rows_written
            )));
        }
        let kind = self.layout.block;
        let mut start = 0;
        while start < rows {
            let (end, payload) = block(start)?;
            binfmt::write_record(self.writer(), kind, &payload)?;
            start = end;
        }
        self.rows_written += rows;
        Ok(())
    }

    /// Validates that exactly the declared number of rows was written,
    /// then commits the file: end record, flush, fsync, rename over
    /// `path`. On any error the temp file is removed and `path` is left
    /// as it was.
    fn finish(mut self) -> io::Result<()> {
        if self.rows_written != self.rows {
            // Drop removes the temp file.
            return Err(invalid_data(format!(
                "file declares {} rows but {} were written",
                self.rows, self.rows_written
            )));
        }
        // An error propagates with `?`; Drop removes the temp file.
        binfmt::write_record(self.writer(), binfmt::REC_END, b"")?;
        let mut w = self.w.take().expect("finish consumes the writer");
        let flushed = w.flush().and_then(|()| w.get_ref().sync_all());
        drop(w);
        let result = flushed.and_then(|()| crate::atomic::persist_temp(&self.tmp, &self.path));
        if result.is_err() {
            fs::remove_file(&self.tmp).ok();
        }
        result
    }
}

impl Drop for ContainerWriter {
    fn drop(&mut self) {
        // An unfinished writer (crash, error path, forgotten finish)
        // must not leave its temp file behind.
        if let Some(w) = self.w.take() {
            drop(w);
            fs::remove_file(&self.tmp).ok();
        }
    }
}

/// The read half of the container core: magic and header record on
/// open, the record loop that fills the stage, and the end-of-pass check
/// that the container holds exactly the declared rows followed by its end
/// record.
#[derive(Debug)]
struct ContainerReader<S> {
    path: PathBuf,
    reader: BufReader<File>,
    data_start: u64,
    rows: usize,
    cols: usize,
    shard_rows: usize,
    next_row: usize,
    /// Whether the end record was seen.
    done: bool,
    stage: S,
}

impl<S: Stage> ContainerReader<S> {
    fn open(path: &Path, shard_rows: usize) -> io::Result<Self> {
        if shard_rows == 0 {
            return Err(invalid_data("shard_rows must be at least 1".to_string()));
        }
        let mut reader = BufReader::new(File::open(path)?);
        let display = path.display().to_string();
        let malformed = |detail: String| {
            StreamError::MalformedHeader {
                path: display.clone(),
                detail,
            }
            .into_io()
        };
        let mut magic = [0u8; 8];
        match reader.read_exact(&mut magic) {
            Ok(()) if magic == binfmt::MAGIC => {}
            Err(e) if e.kind() != io::ErrorKind::UnexpectedEof => return Err(e),
            _ => {
                return Err(malformed(
                    "not an ivmf shards v1 container (missing magic)".to_string(),
                ))
            }
        }
        let tag = S::LAYOUT.tag;
        let (kind, payload) = binfmt::read_record(&mut reader)?.ok_or_else(|| {
            StreamError::UnexpectedEof {
                path: display.clone(),
                row: 0,
            }
            .into_io()
        })?;
        if kind != S::LAYOUT.header {
            return Err(malformed(format!(
                "expected a '{tag}' header record, found record kind {kind}"
            )));
        }
        let header = std::str::from_utf8(&payload)
            .map_err(|_| malformed("header record is not UTF-8".to_string()))?;
        let (rows, cols) = parse_header(path, header, tag)?;
        Ok(ContainerReader {
            path: path.to_path_buf(),
            reader,
            data_start: (binfmt::MAGIC.len() + binfmt::record_len(payload.len())) as u64,
            rows,
            cols,
            shard_rows,
            next_row: 0,
            done: false,
            stage: S::default(),
        })
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(self.data_start))?;
        self.next_row = 0;
        self.done = false;
        self.stage.clear();
        Ok(())
    }

    fn eof(&self, row: usize) -> io::Error {
        StreamError::UnexpectedEof {
            path: self.path.display().to_string(),
            row,
        }
        .into_io()
    }

    fn surplus(&self) -> io::Error {
        StreamError::TrailingData {
            path: self.path.display().to_string(),
            row: self.rows,
        }
        .into_io()
    }

    /// Reads the next record: a block is decoded onto the stage (`row` is
    /// the global row of its first row; a cell that is not a proper
    /// interval is an [`StreamError::InvalidCell`]), the end record marks
    /// the container done, and end of file before the end record is an
    /// `UnexpectedEof` at `row`.
    fn next_record(&mut self, row: usize) -> io::Result<()> {
        match binfmt::read_record(&mut self.reader)? {
            // End of file without an end record: the writer never
            // finished this container.
            None => Err(self.eof(row)),
            Some((kind, payload)) if kind == S::LAYOUT.block => {
                match self.stage.decode(&payload, self.cols)? {
                    None => Ok(()),
                    Some((r, col, lo, hi)) => Err(StreamError::InvalidCell {
                        path: self.path.display().to_string(),
                        row: row + r,
                        col,
                        lo,
                        hi,
                    }
                    .into_io()),
                }
            }
            Some((binfmt::REC_END, _)) => {
                self.done = true;
                Ok(())
            }
            Some((kind, _)) => Err(invalid_data(format!(
                "{}: unexpected record kind {kind} in a {} shard container",
                self.path.display(),
                S::LAYOUT.tag
            ))),
        }
    }

    /// Decodes block records into the stage until the next shard is
    /// buffered, then emits it. Once the declared rows are read, checks
    /// that the end record follows them and returns `None`.
    fn read_shard(&mut self) -> io::Result<Option<S::Shard>> {
        if self.next_row >= self.rows {
            if self.stage.pending() > 0 {
                return Err(self.surplus());
            }
            if !self.done {
                self.next_record(self.rows)?;
                if !self.done {
                    return Err(self.surplus());
                }
            }
            return Ok(None);
        }
        let take = self.shard_rows.min(self.rows - self.next_row);
        while self.stage.pending() < take {
            let row = self.next_row + self.stage.pending();
            if self.done {
                // The end record arrived before the declared rows did.
                return Err(self.eof(row));
            }
            self.next_record(row)?;
        }
        let shard = self.stage.emit(take, self.cols)?;
        self.next_row += take;
        Ok(Some(shard))
    }
}

/// A shard type the container stores: dense [`IntervalMatrix`] rows or
/// [`CsrIntervalShard`]s. Its stage decodes (and encodes) the
/// representation's block records; everything else about a shard file is
/// written once, in [`ShardFileWriter`] and [`ShardFileReader`].
pub trait StoredShard: IntervalShard {
    /// The reader-side staging buffer of this representation.
    #[doc(hidden)]
    type Stage: Stage<Shard = Self>;
}

impl StoredShard for IntervalMatrix {
    type Stage = DenseStage;
}

impl StoredShard for CsrIntervalShard {
    type Stage = CsrStage;
}

/// Incremental writer of shard files of shard type `S` ([`ShardWriter`]
/// for dense rows, [`CsrShardWriter`] for CSR rows that store only the
/// nonzero entries): create it with the final row/column counts, push
/// row blocks as they are generated (e.g. one
/// [`crate::synthetic::generate_power_law`] block at a time), and
/// [`finish`](ShardFileWriter::finish) once every row has been written.
/// Peak memory is one block — the file is produced without ever holding
/// the full matrix.
///
/// The writer is crash-safe: rows stream into a temporary sibling of the
/// destination, and only `finish` (end record, flush, fsync, rename)
/// makes the file visible at `path`. A writer dropped before `finish` —
/// including by a panic or an early return after an I/O error — removes
/// its temp file and leaves any previously committed file untouched.
#[derive(Debug)]
pub struct ShardFileWriter<S> {
    core: ContainerWriter,
    shard: PhantomData<S>,
}

/// The writer of dense interval shard files.
pub type ShardWriter = ShardFileWriter<IntervalMatrix>;

/// The writer of sparse CSR interval shard files.
pub type CsrShardWriter = ShardFileWriter<CsrIntervalShard>;

impl<S: StoredShard> ShardFileWriter<S> {
    /// Opens a temporary sibling of `path` and writes the magic and the
    /// header record; `path` itself is only created by
    /// [`finish`](ShardFileWriter::finish).
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> io::Result<Self> {
        let core = ContainerWriter::create(path.as_ref(), S::Stage::LAYOUT, rows, cols)?;
        Ok(ShardFileWriter {
            core,
            shard: PhantomData,
        })
    }

    /// Rows written so far.
    pub fn rows_written(&self) -> usize {
        self.core.rows_written
    }

    /// Appends the rows of `shard` to the file (row order across calls),
    /// cut into records of at most `BLOCK_VALUES` cells or stored
    /// entries (always at least one row) so a single push never
    /// approaches the record length ceiling.
    pub fn push_shard(&mut self, shard: &S) -> io::Result<()> {
        let (rows, cols) = (shard.rows(), shard.cols());
        self.core
            .push(rows, cols, |start| S::Stage::encode(shard, start))
    }

    /// Validates that exactly the declared number of rows was written,
    /// then commits the file: end record, flush, fsync, rename over
    /// `path`. On any error the temp file is removed and `path` is left
    /// as it was.
    pub fn finish(self) -> io::Result<()> {
        self.core.finish()
    }
}

impl CsrShardWriter {
    /// [`ShardFileWriter::create`]. Retained only for the workload
    /// benchmark's source: the binary container is the only format.
    pub fn create_with_format(
        path: impl AsRef<Path>,
        rows: usize,
        cols: usize,
        _format: ShardFormat,
    ) -> io::Result<Self> {
        Self::create(path, rows, cols)
    }
}

/// Writes an interval matrix to `path` in one call; it loads back
/// bit-exactly. The write inherits [`ShardFileWriter`]'s crash safety:
/// the file only appears at `path` complete, fsync'd and renamed.
pub fn write_interval_matrix(path: impl AsRef<Path>, m: &IntervalMatrix) -> io::Result<()> {
    let mut w = ShardWriter::create(path, m.rows(), m.cols())?;
    w.push_shard(m)?;
    w.finish()
}

/// Writes a CSR interval shard to `path` in one call, like
/// [`write_interval_matrix`].
pub fn write_csr_matrix(path: impl AsRef<Path>, m: &CsrIntervalShard) -> io::Result<()> {
    let mut w = CsrShardWriter::create(path, m.rows(), m.cols())?;
    w.push_shard(m)?;
    w.finish()
}

/// Reads a shard file of shard type `S` ([`ShardReader`] for dense rows,
/// [`CsrShardReader`] for CSR rows) shard by shard. See the
/// [module docs](self) for the format.
///
/// Memory: the reader decodes one whole writer record at a time,
/// whatever its `shard_rows`, and stages it until emitted — up to
/// `BLOCK_VALUES` = 2²¹ cells per record (about 32 MiB of lower and
/// upper bounds) for a dense file, 2²¹ stored entries (about 48 MiB of
/// column indices and both bounds) for a CSR one — plus the shard it
/// hands out. A file written in smaller pushes (each push is cut into its
/// own records) keeps a pass smaller; `tests/right_tighten_memory.rs`
/// writes 4096-row records for that reason.
#[derive(Debug)]
pub struct ShardFileReader<S: StoredShard> {
    core: ContainerReader<S::Stage>,
}

/// The reader of dense interval shard files, a [`RowShardSource`].
pub type ShardReader = ShardFileReader<IntervalMatrix>;

/// The reader of sparse CSR interval shard files, a [`CsrShardSource`].
pub type CsrShardReader = ShardFileReader<CsrIntervalShard>;

impl<S: StoredShard> ShardFileReader<S> {
    /// Opens `path`, reading the header; shards will have at most
    /// `shard_rows` rows (the last one takes the remainder).
    pub fn open(path: impl AsRef<Path>, shard_rows: usize) -> io::Result<Self> {
        ContainerReader::open(path.as_ref(), shard_rows).map(|core| ShardFileReader { core })
    }

    /// Total number of rows in the file.
    pub fn rows(&self) -> usize {
        self.core.rows
    }

    /// Number of columns per row.
    pub fn cols(&self) -> usize {
        self.core.cols
    }

    /// Configured maximum rows per shard.
    pub fn shard_rows(&self) -> usize {
        self.core.shard_rows
    }

    /// Rewinds to the first shard.
    pub fn rewind(&mut self) -> io::Result<()> {
        self.core.rewind()
    }

    /// Reads the next shard, or `None` after the last row.
    pub fn read_shard(&mut self) -> io::Result<Option<S>> {
        self.core.read_shard()
    }
}

impl RowShardSource for ShardReader {
    fn rows(&self) -> usize {
        self.core.rows
    }
    fn cols(&self) -> usize {
        self.core.cols
    }
    fn reset(&mut self) -> ivmf_interval::Result<()> {
        self.rewind()
            .map_err(|e| IntervalError::Source(e.to_string()))
    }
    fn next_shard(&mut self) -> ivmf_interval::Result<Option<IntervalMatrix>> {
        self.read_shard()
            .map_err(|e| IntervalError::Source(e.to_string()))
    }
}

impl CsrShardSource for CsrShardReader {
    fn rows(&self) -> usize {
        self.core.rows
    }
    fn cols(&self) -> usize {
        self.core.cols
    }
    fn reset(&mut self) -> ivmf_interval::Result<()> {
        self.rewind()
            .map_err(|e| IntervalError::Source(e.to_string()))
    }
    fn next_shard(&mut self) -> ivmf_interval::Result<Option<CsrIntervalShard>> {
        self.read_shard()
            .map_err(|e| IntervalError::Source(e.to_string()))
    }
}

/// Loads the whole file as an in-memory sharded matrix of shard type `S`
/// (shards of `shard_rows` rows); a container of the other
/// representation is a typed [`StreamError::MalformedHeader`].
pub fn load_sharded<S: StoredShard>(
    path: impl AsRef<Path>,
    shard_rows: usize,
) -> io::Result<ShardedIntervalMatrix<S>> {
    let mut reader = ShardFileReader::<S>::open(path, shard_rows)?;
    let mut shards = Vec::new();
    while let Some(shard) = reader.read_shard()? {
        shards.push(shard);
    }
    ShardedIntervalMatrix::from_shards(shards).map_err(|e| invalid_data(e.to_string()))
}

/// One-pass out-of-core interval Gram `M†ᵀ M†` of the file at `path`,
/// through the scalar accumulators of shard type `S`: each shard is
/// loaded, folded and dropped, so peak memory is one writer record (see
/// [`ShardReader`]) plus the `m×m` accumulators — independent of the row
/// count. Bitwise identical to the in-memory streamed Gram of the same
/// matrix in either representation.
pub fn stream_interval_gram<S: StoredShard>(
    path: impl AsRef<Path>,
    shard_rows: usize,
) -> io::Result<IntervalMatrix>
where
    ShardFileReader<S>: ShardSource<S>,
{
    let reader = ShardFileReader::<S>::open(path, shard_rows)?;
    let (rows, cols) = (reader.rows(), reader.cols());
    let mut acc = if S::CSR {
        StreamingIntervalGram::new_csr(rows, cols)
    } else {
        StreamingIntervalGram::new(rows, cols)
    };
    // Decode on a background thread (IVMF_PREFETCH) while this thread
    // folds; delivery is in order, so results are bitwise unchanged.
    let mut src = Prefetch::<S>::from_env(Box::new(reader));
    while let Some(shard) = src.next_shard().map_err(|e| invalid_data(e.to_string()))? {
        acc.push(&shard).map_err(|e| invalid_data(e.to_string()))?;
        shard.recycle();
    }
    acc.finish().map_err(|e| invalid_data(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_uniform, SyntheticConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ivmf_stream_{}_{tag}.ivs", std::process::id()))
    }

    fn sample_matrix(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate_uniform(
            &SyntheticConfig::paper_default().with_shape(rows, cols),
            &mut rng,
        )
    }

    #[test]
    fn write_then_load_round_trips_bit_exactly() {
        let m = sample_matrix(1, 19, 7);
        let path = temp_path("round_trip");
        write_interval_matrix(&path, &m).unwrap();
        let loaded = load_sharded::<IntervalMatrix>(&path, 5).unwrap();
        assert_eq!(loaded.num_shards(), 4);
        assert_eq!(loaded.to_dense(), m, "round-trip must be bit-exact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_reader_streams_in_order_and_rewinds() {
        let m = sample_matrix(2, 11, 4);
        let path = temp_path("reader");
        write_interval_matrix(&path, &m).unwrap();
        let mut reader = ShardReader::open(&path, 3).unwrap();
        assert_eq!((reader.rows(), reader.cols()), (11, 4));
        assert_eq!(reader.shard_rows(), 3);
        let mut rows = 0;
        let mut shards = 0;
        while let Some(shard) = reader.read_shard().unwrap() {
            rows += shard.rows();
            shards += 1;
        }
        assert_eq!((rows, shards), (11, 4));
        // Rewind and stream again through the RowShardSource interface.
        RowShardSource::reset(&mut reader).unwrap();
        let first = RowShardSource::next_shard(&mut reader).unwrap().unwrap();
        assert_eq!(first.rows(), 3);
        assert_eq!(first.get_raw(0, 0), m.get_raw(0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_core_gram_matches_in_memory_streamed_gram_bitwise() {
        let m = sample_matrix(3, 37, 9);
        let path = temp_path("gram");
        write_interval_matrix(&path, &m).unwrap();
        let expected = m.interval_gram_streamed().unwrap();
        for shard_rows in [1usize, 5, 37] {
            let gram = stream_interval_gram::<IntervalMatrix>(&path, shard_rows).unwrap();
            assert_eq!(
                gram, expected,
                "out-of-core gram (shard_rows={shard_rows}) diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    fn sample_csr(seed: u64, rows: usize, cols: usize, nnz_per_row: usize) -> CsrIntervalShard {
        let mut rng = SmallRng::seed_from_u64(seed);
        crate::synthetic::generate_power_law(
            &crate::synthetic::PowerLawConfig::ratings_like(rows, cols)
                .with_nnz_per_row(nnz_per_row),
            &mut rng,
        )
    }

    #[test]
    fn csr_write_then_load_round_trips_bit_exactly() {
        let m = sample_csr(11, 23, 40, 6);
        let path = temp_path("csr_round_trip");
        write_csr_matrix(&path, &m).unwrap();
        let loaded = load_sharded::<CsrIntervalShard>(&path, 5).unwrap();
        assert_eq!(loaded.num_shards(), 5);
        assert_eq!(loaded.nnz(), m.nnz());
        assert_eq!(
            loaded.to_dense(),
            m.to_dense(),
            "CSR round-trip must be bit-exact"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_writer_streams_blocks_without_holding_the_matrix() {
        let whole = sample_csr(12, 30, 25, 4);
        let blocks = ivmf_interval::CsrShardedIntervalMatrix::from_csr(&whole, 7).unwrap();
        let path = temp_path("csr_blocks");
        let mut w = CsrShardWriter::create(&path, whole.rows(), whole.cols()).unwrap();
        for shard in blocks.shards() {
            w.push_shard(shard).unwrap();
        }
        assert_eq!(w.rows_written(), 30);
        w.finish().unwrap();
        let loaded = load_sharded::<CsrIntervalShard>(&path, 30).unwrap();
        assert_eq!(loaded.to_dense(), whole.to_dense());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_reader_streams_in_order_and_rewinds() {
        let m = sample_csr(13, 11, 14, 3);
        let path = temp_path("csr_reader");
        write_csr_matrix(&path, &m).unwrap();
        let mut reader = CsrShardReader::open(&path, 3).unwrap();
        assert_eq!((reader.rows(), reader.cols()), (11, 14));
        assert_eq!(reader.shard_rows(), 3);
        let mut rows = 0;
        let mut shards = 0;
        while let Some(shard) = reader.read_shard().unwrap() {
            rows += shard.rows();
            shards += 1;
        }
        assert_eq!((rows, shards), (11, 4));
        // Rewind and stream again through the CsrShardSource interface.
        CsrShardSource::reset(&mut reader).unwrap();
        let first = CsrShardSource::next_shard(&mut reader).unwrap().unwrap();
        assert_eq!(first.rows(), 3);
        assert_eq!(first.row_entries(0), m.row_entries(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_core_sparse_gram_matches_the_dense_route_bitwise() {
        let m = sample_csr(14, 37, 9, 4);
        let path = temp_path("csr_gram");
        write_csr_matrix(&path, &m).unwrap();
        let expected = m.to_dense().interval_gram_streamed().unwrap();
        for shard_rows in [1usize, 5, 37] {
            let gram = stream_interval_gram::<CsrIntervalShard>(&path, shard_rows).unwrap();
            assert_eq!(
                gram, expected,
                "out-of-core sparse gram (shard_rows={shard_rows}) diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A hand-assembled container: magic, a header record, the given
    /// records and, if `end`, the end record.
    fn container(header_kind: u8, header: &str, records: &[(u8, Vec<u8>)], end: bool) -> Vec<u8> {
        let mut buf = binfmt::MAGIC.to_vec();
        binfmt::write_record(&mut buf, header_kind, header.as_bytes()).unwrap();
        for (kind, payload) in records {
            binfmt::write_record(&mut buf, *kind, payload).unwrap();
        }
        if end {
            binfmt::write_record(&mut buf, binfmt::REC_END, b"").unwrap();
        }
        buf
    }

    fn dense_block(rows: usize, cols: usize) -> (u8, Vec<u8>) {
        let lo: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + 0.5).collect();
        let payload = binfmt::encode_dense_rows(rows, &lo, &hi).unwrap();
        (binfmt::REC_DENSE_BLOCK, payload)
    }

    fn csr_block(seed: u64, rows: usize, cols: usize) -> (u8, Vec<u8>) {
        let payload = binfmt::encode_csr_block(&sample_csr(seed, rows, cols, 2)).unwrap();
        (binfmt::REC_CSR_BLOCK, payload)
    }

    #[test]
    fn csr_formats_are_mutually_exclusive_and_validated() {
        let path = temp_path("csr_malformed");
        // A dense file is rejected by the CSR reader and vice versa.
        let dense = sample_matrix(15, 3, 3);
        write_interval_matrix(&path, &dense).unwrap();
        assert!(matches!(
            typed(&CsrShardReader::open(&path, 4).unwrap_err()),
            StreamError::MalformedHeader { .. }
        ));
        let m = sample_csr(15, 3, 3, 2);
        write_csr_matrix(&path, &m).unwrap();
        assert!(matches!(
            typed(&ShardReader::open(&path, 4).unwrap_err()),
            StreamError::MalformedHeader { .. }
        ));
        // A block record of the other kind fails loudly mid-read.
        let foreign = container(
            binfmt::REC_CSR_HEADER,
            "csr 2 3\n",
            &[dense_block(2, 3)],
            true,
        );
        std::fs::write(&path, foreign).unwrap();
        let mut reader = CsrShardReader::open(&path, 4).unwrap();
        assert_eq!(
            reader.read_shard().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Writer validates shape and row accounting.
        let w = CsrShardWriter::create(&path, 5, 3).unwrap();
        assert!(w.finish().is_err());
        let mut w = CsrShardWriter::create(&path, 2, 3).unwrap();
        assert!(w.push_shard(&sample_csr(16, 2, 4, 2)).is_err());
        assert!(w.push_shard(&sample_csr(16, 3, 3, 2)).is_err());
        assert!(CsrShardWriter::create(&path, 0, 3)
            .unwrap()
            .finish()
            .is_ok());
        std::fs::remove_file(&path).ok();
    }

    fn typed(err: &io::Error) -> &StreamError {
        StreamError::from_io(err).expect("reader errors must carry a typed StreamError")
    }

    /// The first error a full shard pass over `path` (shards of 2 rows)
    /// raises, open included.
    fn dense_error(path: &Path) -> io::Error {
        load_sharded::<IntervalMatrix>(path, 2).expect_err("expected a dense read error")
    }

    fn csr_error(path: &Path) -> io::Error {
        load_sharded::<CsrIntervalShard>(path, 2).expect_err("expected a CSR read error")
    }

    /// The container errors both readers share, driven through either.
    fn assert_container_errors_are_typed(
        path: &Path,
        header_kind: u8,
        tag: &str,
        block: impl Fn(usize) -> (u8, Vec<u8>),
        error: fn(&Path) -> io::Error,
    ) {
        let write = |bytes: Vec<u8>| std::fs::write(path, bytes).unwrap();
        let header = |rows: usize| format!("{tag} {rows} 3\n");
        // A legacy text shard file: not a container, and the error names
        // the file.
        let legacy = match tag {
            "dense" => "1 3\n0.0 1.0 0.0 1.0 0.0 1.0\n",
            _ => "csr 1 3\n1 0 0.0 1.0\n",
        };
        write(legacy.as_bytes().to_vec());
        let err = error(path);
        match typed(&err) {
            StreamError::MalformedHeader { path: p, detail } => {
                assert_eq!(p, &path.display().to_string());
                assert!(detail.contains("ivmf shards v1"), "{detail}");
            }
            other => panic!("expected MalformedHeader, got {other:?}"),
        }
        // An empty file is not a container either.
        write(Vec::new());
        assert!(matches!(
            typed(&error(path)),
            StreamError::MalformedHeader { .. }
        ));
        // A header record of the wrong kind.
        write(container(binfmt::REC_END, &header(2), &[], true));
        assert!(matches!(
            typed(&error(path)),
            StreamError::MalformedHeader { .. }
        ));
        // A header record with an unparseable row count.
        write(container(
            header_kind,
            &format!("{tag} banana 3\n"),
            &[],
            true,
        ));
        assert!(matches!(
            typed(&error(path)),
            StreamError::MalformedHeader { .. }
        ));
        // Trailing tokens inside the header record.
        write(container(
            header_kind,
            &format!("{tag} 2 3 surprise\n"),
            &[],
            true,
        ));
        assert!(matches!(
            typed(&error(path)),
            StreamError::TrailingData {
                row: usize::MAX,
                ..
            }
        ));
        // Element count overflowing usize is rejected before any read.
        write(container(header_kind, &header(usize::MAX / 2), &[], true));
        assert!(matches!(
            typed(&error(path)),
            StreamError::DimensionOverflow { cols: 3, .. }
        ));
        // End of file right after the magic: no header record.
        write(binfmt::MAGIC.to_vec());
        assert!(matches!(
            typed(&error(path)),
            StreamError::UnexpectedEof { row: 0, .. }
        ));
        // End of file inside a block record: the io kind says EOF.
        let mut torn = container(header_kind, &header(2), &[block(2)], true);
        let cut = torn.len() - binfmt::record_len(0) - 12;
        torn.truncate(cut);
        write(torn);
        assert_eq!(error(path).kind(), io::ErrorKind::UnexpectedEof);
        // The end record before the declared rows: EOF at the first
        // missing row.
        write(container(header_kind, &header(5), &[block(3)], true));
        let err = error(path);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(matches!(
            typed(&err),
            StreamError::UnexpectedEof { row: 3, .. }
        ));
        // shard_rows == 0 is refused on open.
        write(container(header_kind, &header(0), &[], true));
        assert!(match tag {
            "dense" => ShardReader::open(path, 0).is_err(),
            _ => CsrShardReader::open(path, 0).is_err(),
        });
    }

    #[test]
    fn dense_reader_errors_are_typed_and_named() {
        let path = temp_path("typed_dense");
        assert_container_errors_are_typed(
            &path,
            binfmt::REC_DENSE_HEADER,
            "dense",
            |rows| dense_block(rows, 3),
            dense_error,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_reader_errors_are_typed_and_named() {
        let path = temp_path("typed_csr");
        assert_container_errors_are_typed(
            &path,
            binfmt::REC_CSR_HEADER,
            "csr",
            |rows| csr_block(rows as u64, rows, 3),
            csr_error,
        );
        std::fs::remove_file(&path).ok();
    }

    /// The end-of-pass check both readers share: a container must hold
    /// exactly its declared rows, followed by the end record.
    fn assert_end_of_pass_is_checked(
        path: &Path,
        header_kind: u8,
        tag: &str,
        block: impl Fn(usize) -> (u8, Vec<u8>),
        error: fn(&Path) -> io::Error,
    ) {
        let write = |bytes: Vec<u8>| std::fs::write(path, bytes).unwrap();
        let header = |rows: usize| format!("{tag} {rows} 2\n");
        // The end record is missing.
        write(container(header_kind, &header(3), &[block(3)], false));
        let err = error(path);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(matches!(
            typed(&err),
            StreamError::UnexpectedEof { row: 3, .. }
        ));
        // A 0-row container without its end record.
        write(container(header_kind, &header(0), &[], false));
        assert!(matches!(
            typed(&error(path)),
            StreamError::UnexpectedEof { row: 0, .. }
        ));
        // Blocks holding 9 rows under a 3-row header: staged residue.
        write(container(header_kind, &header(3), &[block(9)], true));
        assert!(matches!(
            typed(&error(path)),
            StreamError::TrailingData { row: 3, .. }
        ));
        // A further block record after the declared rows.
        write(container(
            header_kind,
            &header(3),
            &[block(3), block(3)],
            true,
        ));
        assert!(matches!(
            typed(&error(path)),
            StreamError::TrailingData { row: 3, .. }
        ));
        // A 0-row container holding a block.
        write(container(header_kind, &header(0), &[block(1)], true));
        assert!(matches!(
            typed(&error(path)),
            StreamError::TrailingData { row: 0, .. }
        ));
    }

    #[test]
    fn dense_reader_rejects_missing_end_and_surplus_rows() {
        let path = temp_path("end_dense");
        assert_end_of_pass_is_checked(
            &path,
            binfmt::REC_DENSE_HEADER,
            "dense",
            |rows| dense_block(rows, 2),
            dense_error,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_reader_rejects_missing_end_and_surplus_rows() {
        let path = temp_path("end_csr");
        assert_end_of_pass_is_checked(
            &path,
            binfmt::REC_CSR_HEADER,
            "csr",
            |rows| csr_block(rows as u64, rows, 2),
            csr_error,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_writer_is_crash_safe_until_finish() {
        let committed = sample_csr(21, 4, 6, 2);
        let path = temp_path("csr_crash_safe");
        write_csr_matrix(&path, &committed).unwrap();
        let dir = path.parent().unwrap().to_path_buf();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let temps = |tag: &str| -> Vec<String> {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains(&stem) && n.contains(".tmp."))
                .inspect(|n| println!("{tag}: stray temp {n}"))
                .collect()
        };
        // A writer abandoned mid-stream (simulated kill between write and
        // rename) leaves the committed file intact and no temp behind.
        {
            let mut w = CsrShardWriter::create(&path, 8, 6).unwrap();
            w.push_shard(&sample_csr(22, 3, 6, 2)).unwrap();
            // dropped unfinished here
        }
        assert!(temps("after drop").is_empty());
        let loaded = load_sharded::<CsrIntervalShard>(&path, 8).unwrap();
        assert_eq!(loaded.to_dense(), committed.to_dense());
        // A finish that fails row validation also cleans up and keeps
        // the committed file.
        assert!(CsrShardWriter::create(&path, 8, 6)
            .unwrap()
            .finish()
            .is_err());
        assert!(temps("after failed finish").is_empty());
        assert_eq!(
            load_sharded::<CsrIntervalShard>(&path, 8)
                .unwrap()
                .to_dense(),
            committed.to_dense()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_dense_containers_round_trip_bitwise_across_shard_layouts() {
        let m = sample_matrix(31, 29, 6);
        let bin = temp_path("bin_dense");
        let mut w = ShardWriter::create(&bin, 29, 6).unwrap();
        // Push in writer blocks that do NOT divide the reader shards.
        let blocks = ivmf_interval::RowShardedIntervalMatrix::from_dense(&m, 7).unwrap();
        for block in blocks.shards() {
            w.push_shard(block).unwrap();
        }
        w.finish().unwrap();
        // Writer block boundaries are invisible to the reader.
        for shard_rows in [1usize, 4, 29, 100] {
            assert_eq!(
                load_sharded::<IntervalMatrix>(&bin, shard_rows)
                    .unwrap()
                    .to_dense(),
                m,
                "binary round-trip diverged at shard_rows={shard_rows}"
            );
        }
        assert_eq!(
            stream_interval_gram::<IntervalMatrix>(&bin, 5).unwrap(),
            m.interval_gram_streamed().unwrap(),
            "out-of-core and in-memory Grams must be bitwise identical"
        );
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn binary_csr_containers_round_trip_bitwise_across_shard_layouts() {
        let m = sample_csr(32, 41, 30, 5);
        let bin = temp_path("bin_csr");
        let blocks = ivmf_interval::CsrShardedIntervalMatrix::from_csr(&m, 9).unwrap();
        let mut w = CsrShardWriter::create(&bin, 41, 30).unwrap();
        for shard in blocks.shards() {
            w.push_shard(shard).unwrap();
        }
        w.finish().unwrap();
        for shard_rows in [1usize, 4, 41, 100] {
            assert_eq!(
                load_sharded::<CsrIntervalShard>(&bin, shard_rows)
                    .unwrap()
                    .to_dense(),
                m.to_dense(),
                "binary CSR round-trip diverged at shard_rows={shard_rows}"
            );
        }
        assert_eq!(
            stream_interval_gram::<CsrIntervalShard>(&bin, 6).unwrap(),
            m.to_dense().interval_gram_streamed().unwrap(),
            "out-of-core sparse and in-memory dense Grams must be bitwise identical"
        );
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn binary_containers_report_typed_errors_never_panic() {
        let m = sample_csr(33, 13, 10, 3);
        let path = temp_path("bin_corrupt");
        write_csr_matrix(&path, &m).unwrap();
        let committed = std::fs::read(&path).unwrap();

        // Truncation inside the block record: UnexpectedEof.
        let headerless = 8 + binfmt::record_len("csr 13 10\n".len());
        std::fs::write(&path, &committed[..headerless + 30]).unwrap();
        let err = CsrShardReader::open(&path, 4)
            .unwrap()
            .read_shard()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Truncation that removes whole records (no end record): typed EOF.
        std::fs::write(&path, &committed[..headerless]).unwrap();
        let err = CsrShardReader::open(&path, 4)
            .unwrap()
            .read_shard()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(matches!(
            typed(&err),
            StreamError::UnexpectedEof { row: 0, .. }
        ));

        // A flipped payload bit: InvalidData via the record checksum.
        let mut flipped = committed.clone();
        let mid = headerless + 20;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = CsrShardReader::open(&path, 4)
            .unwrap()
            .read_shard()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The dense reader refuses a CSR container and vice versa.
        assert!(matches!(
            typed(&ShardReader::open(&path, 4).unwrap_err()),
            StreamError::MalformedHeader { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_readers_rewind_and_prefetch_depths_agree_bitwise() {
        let m = sample_csr(34, 27, 18, 4);
        let path = temp_path("bin_rewind");
        write_csr_matrix(&path, &m).unwrap();
        let mut reader = CsrShardReader::open(&path, 5).unwrap();
        let first = reader.read_shard().unwrap().unwrap();
        while reader.read_shard().unwrap().is_some() {}
        reader.rewind().unwrap();
        assert_eq!(reader.read_shard().unwrap().unwrap(), first);

        // IVMF_PREFETCH must not perturb bits (depth 0 vs 1 vs 2).
        let baseline = stream_interval_gram::<CsrIntervalShard>(&path, 5).unwrap();
        for depth in ["0", "1", "2"] {
            std::env::set_var(ivmf_env::PREFETCH, depth);
            let gram = stream_interval_gram::<CsrIntervalShard>(&path, 5).unwrap();
            std::env::remove_var(ivmf_env::PREFETCH);
            assert_eq!(gram, baseline, "prefetch depth {depth} perturbed the Gram");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_malformed_inputs() {
        let path = temp_path("malformed");
        std::fs::write(&path, "not a header\n").unwrap();
        assert!(ShardReader::open(&path, 4).is_err());
        assert!(CsrShardReader::open(&path, 4).is_err());
        // A dense container declaring two rows but holding one: the
        // shard read must fail loudly.
        let one_row = container(
            binfmt::REC_DENSE_HEADER,
            "dense 2 2\n",
            &[dense_block(1, 2)],
            true,
        );
        std::fs::write(&path, one_row).unwrap();
        let mut reader = ShardReader::open(&path, 4).unwrap();
        assert!(reader.read_shard().is_err());
        let m = sample_matrix(4, 2, 2);
        write_interval_matrix(&path, &m).unwrap();
        assert!(ShardReader::open(&path, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
