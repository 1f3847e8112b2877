//! The bit-exact binary record container: shard files and snapshots.
//!
//! Every shard file [`crate::stream`] writes and reads is one of these
//! containers, and so is every crash-recovery snapshot
//! (`ivmf_core::snapshot`). Both use the one record frame and the one
//! record-kind table below. Payloads keep their *values* in exactly the
//! form the accumulators consume — [`ivmf_linalg::state_text`]'s header
//! lines and raw little-endian `f64`/`usize` runs — so decode is a
//! bounds-checked `memcpy` rather than a decimal parse, and loading
//! reproduces every bit.
//!
//! ## Layout
//!
//! ```text
//! [magic: 8 bytes] [record]*
//! ```
//!
//! The magic names the container: [`MAGIC`] for a shard file, the
//! snapshot module's own for a snapshot. Every record has the same frame:
//!
//! ```text
//! [kind: u8] [payload_len: u64 LE] [payload bytes] [fnv1a64(payload): u64 LE]
//! ```
//!
//! with the workspace's shared word-parallel FNV-1a ([`crate::fnv`]) as
//! the per-record checksum — a torn write or flipped bit surfaces as a
//! typed [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` error (or a
//! [`Frame`] that is not intact), never a garbage matrix. An explicit
//! [`REC_END`] record makes truncation *at a record boundary* detectable
//! too: a reader that hits end-of-file without having seen it knows the
//! writer never finished.
//!
//! A shard container is `[header record] [block record]* [end record]`.
//! Its payloads open with a one-line text header followed by the binary
//! runs:
//!
//! * header record (`REC_DENSE_HEADER` / `REC_CSR_HEADER`):
//!   `dense <rows> <cols>\n` or `csr <rows> <cols>\n`.
//! * dense block (`REC_DENSE_BLOCK`): `<rows>\n`, then the lo run and the
//!   hi run (`rows·cols` values each).
//! * CSR block (`REC_CSR_BLOCK`): `<rows> <nnz>\n`, then the row-offset
//!   run (`rows+1` values, leading 0), the column-index run, the lo run
//!   and the hi run.
//! * end record (`REC_END`): empty payload.
//!
//! Writers may cut blocks at any row granularity; readers re-shard to
//! whatever `shard_rows` the consumer asked for. The `_into` decoders
//! append into caller-owned buffers (normally leased from
//! [`ivmf_linalg::pool`]) so steady-state ingest performs no allocation.
//! The snapshot's records are described in `ivmf_core::snapshot`.

use std::io::{self, Read, Write};

use ivmf_interval::{valid_input, CsrIntervalShard};
use ivmf_linalg::pool;
use ivmf_linalg::state_text::{
    bad_state, checked_len, parse_usize_line, read_line, read_usize_run_into, write_f64_run,
    write_usize_run,
};

use crate::fnv::fnv1a64;

/// The shard container's leading magic bytes. Eight bytes so the check
/// on open is one fixed-size read; the trailing newline keeps `head -c8`
/// output tidy. A file that does not start with them is not a shard
/// container.
pub const MAGIC: [u8; 8] = *b"ivmfsh1\n";

// The one record-kind table, for shard containers and snapshots alike.

/// Shard record: dense container header (`dense <rows> <cols>\n` payload).
pub const REC_DENSE_HEADER: u8 = 1;
/// Shard record: CSR container header (`csr <rows> <cols>\n` payload).
pub const REC_CSR_HEADER: u8 = 2;
/// Shard record: a dense interval row block.
pub const REC_DENSE_BLOCK: u8 = 3;
/// Shard record: a sparse CSR interval row block.
pub const REC_CSR_BLOCK: u8 = 4;
/// End of container. A shard container's payload is empty; a snapshot's
/// is the FNV-1a of every byte before the record (`u64` LE).
pub const REC_END: u8 = 5;
/// Snapshot record: the content id of the snapshot's matrix (`u64` LE).
pub const REC_SNAPSHOT_MATRIX: u8 = 6;
/// Snapshot record: one memoized stage output.
pub const REC_SNAPSHOT_ENTRY: u8 = 7;
/// Snapshot record: the retained interval-Gram accumulator.
pub const REC_SNAPSHOT_GRAM: u8 = 8;

/// Ceiling on a record payload length. Writers refuse a larger payload,
/// and readers reject a larger declared length before reading it.
pub const MAX_RECORD_LEN: u64 = 1 << 31;

/// The first allocation step of a payload read. Each later step at most
/// doubles what has already arrived, so a corrupted length field costs at
/// most `max(FIRST_STEP, 2 × bytes present)` before the read fails.
const FIRST_STEP: usize = 1 << 20;

/// Writes one checksummed record. A payload over [`MAX_RECORD_LEN`] is an
/// [`io::ErrorKind::InvalidInput`] error, raised before anything is
/// written. The caller flushes.
pub fn write_record(w: &mut dyn Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "a {}-byte record payload exceeds the {MAX_RECORD_LEN}-byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64(payload).to_le_bytes())
}

/// One whole record frame as read from a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The record kind byte (not covered by the checksum: callers
    /// validate kinds).
    pub kind: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Whether the payload matches its checksum. A frame that is not
    /// intact is still whole: the next record starts right after it.
    pub intact: bool,
}

/// Reads one record frame — the one record parser. Returns `None` on a
/// clean end-of-stream at a record boundary. A frame cut short is an
/// `UnexpectedEof` error and a declared length over [`MAX_RECORD_LEN`] is
/// `InvalidData`: after either, the next record's offset is unknown. A
/// checksum mismatch is not an error but a [`Frame`] with `intact: false`.
///
/// The payload buffer grows with the bytes that actually arrive, so a
/// length field that lies cannot allocate far beyond the input.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Frame>> {
    let mut kind = [0u8; 1];
    // Distinguish "no more records" from "record cut short": end-of-stream
    // before the first byte is a clean close.
    if r.read(&mut kind)? == 0 {
        return Ok(None);
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_RECORD_LEN {
        return Err(bad_state(format!(
            "record declares a {len}-byte payload (limit {MAX_RECORD_LEN})"
        )));
    }
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(payload.len().max(FIRST_STEP));
        payload.reserve_exact(step);
        if (&mut *r).take(step as u64).read_to_end(&mut payload)? < step {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "record payload cut short",
            ));
        }
    }
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    let intact = u64::from_le_bytes(sum_bytes) == fnv1a64(&payload);
    Ok(Some(Frame {
        kind: kind[0],
        payload,
        intact,
    }))
}

/// [`read_frame`] for readers that treat a checksum mismatch as fatal:
/// returns the record's kind and payload, and `InvalidData` for a frame
/// that is not intact.
pub fn read_record(r: &mut dyn Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(Frame { intact: false, .. }) => Err(bad_state("record checksum mismatch")),
        Some(Frame { kind, payload, .. }) => Ok(Some((kind, payload))),
    }
}

/// Bytes a record with the given payload occupies on disk (kind + length
/// prefix + payload + checksum). Used by readers to compute rewind
/// offsets without a second pass.
pub fn record_len(payload_len: usize) -> usize {
    1 + 8 + payload_len + 8
}

/// Encodes `rows` dense interval rows, given as raw row-major bound
/// slices, as a `REC_DENSE_BLOCK` payload, so writers can cut a large
/// matrix into several records without materializing sub-matrices.
pub fn encode_dense_rows(rows: usize, lo: &[f64], hi: &[f64]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(16 * lo.len() + 32);
    writeln!(buf, "{rows}")?;
    write_f64_run(&mut buf, lo)?;
    write_f64_run(&mut buf, hi)?;
    Ok(buf)
}

/// Reads a block's `lo` run and the `hi` run after it (`n` values each,
/// as [`write_f64_run`] lays them out), appending them to `lo` / `hi`.
/// The `hi` decode loop checks each cell against its freshly decoded
/// lower bound and returns the block-relative index of the first that is
/// not a proper interval — a NaN or infinite bound, or `lo > hi`; every
/// value is appended either way.
fn read_bound_runs_into(
    r: &mut &[u8],
    n: usize,
    lo: &mut Vec<f64>,
    hi: &mut Vec<f64>,
) -> io::Result<Option<usize>> {
    let nbytes = checked_len(n, 8)?;
    // Both runs are `nbytes` plus a terminator.
    if r.len() / 2 <= nbytes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "block payload ends inside its bound runs",
        ));
    }
    let (lo_run, rest) = r.split_at(nbytes + 1);
    let (hi_run, rest) = rest.split_at(nbytes + 1);
    if lo_run[nbytes] != b'\n' || hi_run[nbytes] != b'\n' {
        return Err(bad_state("missing terminator after binary f64 run"));
    }
    let decode = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let start = lo.len();
    lo.extend(lo_run[..nbytes].chunks_exact(8).map(decode));
    let mut bad = None;
    let cells = hi_run[..nbytes].chunks_exact(8).zip(&lo[start..]);
    hi.extend(cells.enumerate().map(|(i, (c, &l))| {
        let h = decode(c);
        if !valid_input(l, h) && bad.is_none() {
            bad = Some(i);
        }
        h
    }));
    *r = rest;
    Ok(bad)
}

/// Decodes a `REC_DENSE_BLOCK` payload, appending the block's `lo` / `hi`
/// values to the caller's buffers. Returns the block's row count and the
/// row-major index within the block of its first cell that is not a
/// proper interval (NaN or ±Inf bound, or `lo > hi`), if any. Appends
/// nothing useful on error — callers treat any failure as fatal for the
/// read.
pub fn decode_dense_block_into(
    payload: &[u8],
    cols: usize,
    lo: &mut Vec<f64>,
    hi: &mut Vec<f64>,
) -> io::Result<(usize, Option<usize>)> {
    let mut r: &[u8] = payload;
    let line = read_line(&mut r)?;
    let rows = parse_usize_line(&line, 1)?[0];
    let n = checked_len(rows, cols)?;
    let bad = read_bound_runs_into(&mut r, n, lo, hi)?;
    if !r.is_empty() {
        return Err(bad_state("trailing bytes after dense block payload"));
    }
    Ok((rows, bad))
}

/// Encodes a sparse CSR interval row block as a `REC_CSR_BLOCK` payload.
pub fn encode_csr_block(s: &CsrIntervalShard) -> io::Result<Vec<u8>> {
    let pat = s.lo_shard();
    let mut buf = Vec::with_capacity(24 * s.nnz() + 8 * s.rows() + 64);
    writeln!(buf, "{} {}", s.rows(), s.nnz())?;
    write_usize_run(&mut buf, pat.row_ptr())?;
    write_usize_run(&mut buf, pat.col_idx())?;
    write_f64_run(&mut buf, pat.values())?;
    write_f64_run(&mut buf, s.hi_values())?;
    Ok(buf)
}

/// Decodes a `REC_CSR_BLOCK` payload, appending the block to the caller's
/// staged CSR arrays. Returns the block's row count and the index within
/// the block of its first stored entry that is not a proper interval
/// (NaN or ±Inf bound, or `lo > hi`), if any.
///
/// `row_ptr` holds *absolute* offsets into the staged entry arrays: if it
/// is empty the leading `0` is pushed first, and the block's offsets are
/// rebased onto the current last offset, so consecutive blocks stack into
/// one contiguous staged run. Offset monotonicity, the final-offset/entry
///-count agreement, the column range and the intervals are validated
/// here; the rest of the structural validation (sorted unique columns)
/// runs when a [`CsrIntervalShard`] is assembled from the staged rows.
pub fn decode_csr_block_into(
    payload: &[u8],
    cols: usize,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    lo: &mut Vec<f64>,
    hi: &mut Vec<f64>,
) -> io::Result<(usize, Option<usize>)> {
    let mut r: &[u8] = payload;
    let line = read_line(&mut r)?;
    let dims = parse_usize_line(&line, 2)?;
    let (rows, nnz) = (dims[0], dims[1]);
    let n_offs = rows
        .checked_add(1)
        .ok_or_else(|| bad_state("CSR block row count overflows"))?;
    // The declared count only sizes the buffer up to what the payload
    // can hold: a lying row count must not reserve past the input.
    let mut offs = pool::take_usize(n_offs.min(r.len() / 8));
    read_usize_run_into(&mut r, n_offs, &mut offs)?;
    if offs.first() != Some(&0) {
        return Err(bad_state("CSR block row offsets must start at 0"));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad_state("CSR block row offsets must be non-decreasing"));
    }
    if *offs.last().expect("n_offs >= 1") != nnz {
        return Err(bad_state(format!(
            "CSR block declares {nnz} entries but its offsets end at {}",
            offs.last().expect("n_offs >= 1")
        )));
    }
    let base = match row_ptr.last() {
        Some(&b) => b,
        None => {
            row_ptr.push(0);
            0
        }
    };
    for &p in &offs[1..] {
        let abs = p
            .checked_add(base)
            .ok_or_else(|| bad_state("staged CSR offset overflows"))?;
        row_ptr.push(abs);
    }
    pool::recycle_usize(offs);
    let ci_start = col_idx.len();
    read_usize_run_into(&mut r, nnz, col_idx)?;
    if col_idx[ci_start..].iter().any(|&c| c >= cols) {
        return Err(bad_state(format!(
            "CSR block column index out of range for {cols} columns"
        )));
    }
    let bad = read_bound_runs_into(&mut r, nnz, lo, hi)?;
    if !r.is_empty() {
        return Err(bad_state("trailing bytes after CSR block payload"));
    }
    Ok((rows, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-major `lo` / `hi` bounds of a `rows × cols` dense block.
    fn dense_block(rows: usize, cols: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let lo: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + 0.5).collect();
        (lo, hi)
    }

    fn csr_block(rows: usize, cols: usize, seed: u64) -> CsrIntervalShard {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        let mut entries = Vec::new();
        for i in 0..rows {
            for _ in 0..3 {
                let c = (next() as usize) % cols;
                let lo = ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                if !entries.iter().any(|&(r, cc, _, _)| r == i && cc == c) {
                    entries.push((i, c, lo, lo + 0.125));
                }
            }
        }
        CsrIntervalShard::from_triplets(rows, cols, &entries).unwrap()
    }

    /// Decodes one CSR block payload into a fresh shard, with the full
    /// structural validation.
    fn decode_csr(payload: &[u8], cols: usize) -> io::Result<CsrIntervalShard> {
        let (mut rp, mut ci, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (rows, _) = decode_csr_block_into(payload, cols, &mut rp, &mut ci, &mut lo, &mut hi)?;
        CsrIntervalShard::new(rows, cols, rp, ci, lo, hi).map_err(|e| bad_state(e.to_string()))
    }

    #[test]
    fn records_round_trip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_record(&mut buf, REC_DENSE_BLOCK, b"payload bytes").unwrap();
        write_record(&mut buf, REC_END, b"").unwrap();
        let mut r: &[u8] = &buf;
        let (kind, payload) = read_record(&mut r).unwrap().unwrap();
        assert_eq!(
            (kind, payload.as_slice()),
            (REC_DENSE_BLOCK, &b"payload bytes"[..])
        );
        let (kind, payload) = read_record(&mut r).unwrap().unwrap();
        assert_eq!((kind, payload.len()), (REC_END, 0));
        assert!(read_record(&mut r).unwrap().is_none());

        // Truncation mid-record is UnexpectedEof.
        let one = &buf[..record_len(13)];
        let err = read_record(&mut &one[..one.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A flipped payload bit is InvalidData via the checksum.
        let mut flipped = one.to_vec();
        flipped[10] ^= 0x04;
        let err = read_record(&mut &flipped[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A corrupted length field cannot trigger a huge allocation.
        let mut huge = one.to_vec();
        huge[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_record(&mut &huge[..]).is_err());

        // record_len matches what write_record emits.
        assert_eq!(buf.len(), record_len(13) + record_len(0));
    }

    #[test]
    fn frames_walk_past_a_bad_checksum_and_stop_at_a_lying_length() {
        let mut buf = Vec::new();
        write_record(&mut buf, REC_SNAPSHOT_ENTRY, b"first").unwrap();
        write_record(&mut buf, REC_SNAPSHOT_GRAM, b"second").unwrap();
        buf[10] ^= 0x01; // inside "first"
        let mut r: &[u8] = &buf;
        let bad = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((bad.kind, bad.intact), (REC_SNAPSHOT_ENTRY, false));
        let good = read_frame(&mut r).unwrap().unwrap();
        let want = Frame {
            kind: REC_SNAPSHOT_GRAM,
            payload: b"second".to_vec(),
            intact: true,
        };
        assert_eq!(good, want);
        assert!(read_frame(&mut r).unwrap().is_none());

        // A length past the end of the input is a torn frame; one past
        // the limit is rejected before any payload byte is read.
        let one = &buf[record_len(5)..];
        for (len, kind) in [
            (7, io::ErrorKind::UnexpectedEof),
            (MAX_RECORD_LEN, io::ErrorKind::UnexpectedEof),
            (MAX_RECORD_LEN + 1, io::ErrorKind::InvalidData),
            (u64::MAX, io::ErrorKind::InvalidData),
        ] {
            let mut lying = one.to_vec();
            lying[1..9].copy_from_slice(&len.to_le_bytes());
            let err = read_frame(&mut &lying[..]).unwrap_err();
            assert_eq!(err.kind(), kind, "declared length {len}");
        }
    }

    #[test]
    fn write_record_refuses_an_oversized_payload_before_writing() {
        // Zeroed pages are mapped lazily: the refused payload is never
        // touched, so this costs address space, not memory.
        let huge = vec![0u8; MAX_RECORD_LEN as usize + 1];
        let mut out = Vec::new();
        let err = write_record(&mut out, REC_SNAPSHOT_ENTRY, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn dense_blocks_round_trip_bit_for_bit() {
        for (rows, cols) in [(4usize, 7usize), (1, 1), (0, 5), (3, 0)] {
            let (lo, hi) = dense_block(rows, cols, 11 + rows as u64);
            let payload = encode_dense_rows(rows, &lo, &hi).unwrap();
            let (mut back_lo, mut back_hi) = (Vec::new(), Vec::new());
            let back = decode_dense_block_into(&payload, cols, &mut back_lo, &mut back_hi).unwrap();
            assert_eq!(back, (rows, None));
            assert_eq!(lo, back_lo);
            assert_eq!(hi, back_hi);
        }
    }

    #[test]
    fn dense_blocks_append_and_stack_into_existing_buffers() {
        let a = dense_block(2, 3, 5);
        let b = dense_block(4, 3, 6);
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_dense_block_into(
                &encode_dense_rows(2, &a.0, &a.1).unwrap(),
                3,
                &mut lo,
                &mut hi
            )
            .unwrap(),
            (2, None)
        );
        assert_eq!(
            decode_dense_block_into(
                &encode_dense_rows(4, &b.0, &b.1).unwrap(),
                3,
                &mut lo,
                &mut hi
            )
            .unwrap(),
            (4, None)
        );
        let mut want_lo = a.0.clone();
        want_lo.extend_from_slice(&b.0);
        assert_eq!(lo, want_lo);
        assert_eq!(hi.len(), 18);
        // Truncated and padded payloads are errors, not panics.
        let good = encode_dense_rows(2, &a.0, &a.1).unwrap();
        assert!(decode_dense_block_into(&good[..good.len() - 5], 3, &mut lo, &mut hi).is_err());
        let mut padded = good.clone();
        padded.extend_from_slice(b"junk");
        assert!(decode_dense_block_into(&padded, 3, &mut lo, &mut hi).is_err());
    }

    #[test]
    fn csr_blocks_round_trip_and_stack_with_rebased_offsets() {
        let a = csr_block(3, 6, 21);
        let b = csr_block(5, 6, 22);
        let back = decode_csr(&encode_csr_block(&a).unwrap(), 6).unwrap();
        assert_eq!(a, back);

        // Two stacked blocks decode into one contiguous staged run whose
        // offsets keep climbing across the block boundary.
        let (mut rp, mut ci) = (Vec::new(), Vec::new());
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        let ra = decode_csr_block_into(
            &encode_csr_block(&a).unwrap(),
            6,
            &mut rp,
            &mut ci,
            &mut lo,
            &mut hi,
        )
        .unwrap();
        let rb = decode_csr_block_into(
            &encode_csr_block(&b).unwrap(),
            6,
            &mut rp,
            &mut ci,
            &mut lo,
            &mut hi,
        )
        .unwrap();
        assert_eq!((ra, rb), ((3, None), (5, None)));
        assert_eq!(rp.len(), 9);
        assert_eq!(*rp.last().unwrap(), a.nnz() + b.nnz());
        assert_eq!(ci.len(), a.nnz() + b.nnz());
        let stacked = CsrIntervalShard::new(8, 6, rp, ci, lo, hi).unwrap();
        for i in 0..3 {
            assert_eq!(stacked.row_entries(i), a.row_entries(i));
        }
        for i in 0..5 {
            assert_eq!(stacked.row_entries(3 + i), b.row_entries(i));
        }
    }

    #[test]
    fn csr_decoder_rejects_malformed_blocks() {
        let good = encode_csr_block(&csr_block(3, 6, 31)).unwrap();
        // Column out of range for a narrower matrix.
        assert!(decode_csr(&good, 1).is_err());
        // Truncated payload is an error, not a panic.
        assert!(decode_csr(&good[..good.len() - 5], 6).is_err());
        // Trailing bytes are rejected.
        let mut padded = good.clone();
        padded.extend_from_slice(b"junk");
        assert!(decode_csr(&padded, 6).is_err());
        // Empty blocks are fine.
        let empty = csr_block(0, 4, 1);
        let payload = encode_csr_block(&empty).unwrap();
        assert_eq!(decode_csr(&payload, 4).unwrap().nnz(), 0);
    }
}
