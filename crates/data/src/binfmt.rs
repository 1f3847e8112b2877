//! The bit-exact binary shard container — "ivmf shards v1".
//!
//! Text shards ([`crate::stream`]) are greppable and diffable, but the
//! decimal round-trip dominates out-of-core ingest: parsing `f64`s back
//! from shortest-round-trip text costs more CPU than the Gram arithmetic
//! the rows feed. This container keeps the *values* in exactly the form
//! the accumulators consume — raw little-endian `f64`/`usize` runs, the
//! same primitives as [`ivmf_linalg::state_text`]'s run codecs — so
//! decode is a bounds-checked `memcpy`, and results are bitwise identical
//! to the text route by construction.
//!
//! ## Layout
//!
//! ```text
//! [magic: b"ivmfsh1\n"] [header record] [block record]* [end record]
//! ```
//!
//! Every record has the same frame structure:
//!
//! ```text
//! [kind: u8] [payload_len: u64 LE] [payload bytes] [fnv1a64(payload): u64 LE]
//! ```
//!
//! with the workspace's shared word-parallel FNV-1a ([`crate::fnv`]) as
//! the per-record checksum — a torn write or flipped bit surfaces as a
//! typed [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` error,
//! never a garbage matrix. The explicit [`REC_END`] record makes
//! truncation *at a record boundary* detectable too: a reader that hits
//! end-of-file without having seen it knows the writer never finished.
//!
//! Record payloads open with a one-line text header (greppable, like
//! everything else in the state format) followed by the binary runs:
//!
//! * header record (`REC_DENSE_HEADER` / `REC_CSR_HEADER`):
//!   `dense <rows> <cols>\n` or `csr <rows> <cols>\n` — same line the
//!   text format uses, so one parser serves both.
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

use std::io::{self, Read, Write};

use ivmf_interval::{CsrIntervalShard, IntervalMatrix};
use ivmf_linalg::pool;
use ivmf_linalg::state_text::{
    bad_state, checked_len, parse_usize_line, read_f64_run_into, read_line, read_usize_run_into,
    write_f64_run, write_usize_run,
};
use ivmf_linalg::Matrix;

use crate::fnv::fnv1a64;

/// The container's leading magic bytes. Eight bytes so format sniffing is
/// one fixed-size read; the trailing newline keeps `head -c8` output tidy
/// and guarantees the magic can never prefix a valid text-format header
/// (text headers start with a digit or `csr`).
pub const MAGIC: [u8; 8] = *b"ivmfsh1\n";

/// Record kind: dense container header (`dense <rows> <cols>\n` payload).
pub const REC_DENSE_HEADER: u8 = 1;
/// Record kind: CSR container header (`csr <rows> <cols>\n` payload).
pub const REC_CSR_HEADER: u8 = 2;
/// Record kind: a dense interval row block.
pub const REC_DENSE_BLOCK: u8 = 3;
/// Record kind: a sparse CSR interval row block.
pub const REC_CSR_BLOCK: u8 = 4;
/// Record kind: end of container (empty payload).
pub const REC_END: u8 = 5;

/// Ceiling on a declared record payload length: a corrupted length field
/// must not trigger a multi-gigabyte allocation before the checksum gets
/// a chance to reject the record.
pub const MAX_RECORD_LEN: u64 = 1 << 31;

/// Writes one checksummed record. The caller flushes.
pub fn write_record(w: &mut dyn Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64(payload).to_le_bytes())
}

/// Reads one record, validating the declared length and the checksum.
/// Returns `None` on a clean end-of-stream at a record boundary; any
/// mid-record truncation is an `UnexpectedEof` error and any checksum
/// mismatch is `InvalidData`.
pub fn read_record(r: &mut dyn Read) -> io::Result<Option<(u8, Vec<u8>)>> {
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
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    let declared = u64::from_le_bytes(sum_bytes);
    let actual = fnv1a64(&payload);
    if declared != actual {
        return Err(bad_state(format!(
            "record checksum mismatch: declared {declared:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(Some((kind[0], payload)))
}

/// Bytes a record with the given payload occupies on disk (kind + length
/// prefix + payload + checksum). Used by readers to compute rewind
/// offsets without a second pass.
pub fn record_len(payload_len: usize) -> usize {
    1 + 8 + payload_len + 8
}

/// Encodes a dense interval row block as a `REC_DENSE_BLOCK` payload.
pub fn encode_dense_block(m: &IntervalMatrix) -> io::Result<Vec<u8>> {
    encode_dense_rows(m.rows(), m.lo().as_slice(), m.hi().as_slice())
}

/// [`encode_dense_block`] on raw row-major bound slices, so writers can
/// cut a large matrix into several records without materializing
/// sub-matrices.
pub fn encode_dense_rows(rows: usize, lo: &[f64], hi: &[f64]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(16 * lo.len() + 32);
    writeln!(buf, "{rows}")?;
    write_f64_run(&mut buf, lo)?;
    write_f64_run(&mut buf, hi)?;
    Ok(buf)
}

/// Decodes a `REC_DENSE_BLOCK` payload, appending the block's `lo` / `hi`
/// values to the caller's buffers and returning the block's row count.
/// Appends nothing useful on error — callers treat any failure as fatal
/// for the read.
pub fn decode_dense_block_into(
    payload: &[u8],
    cols: usize,
    lo: &mut Vec<f64>,
    hi: &mut Vec<f64>,
) -> io::Result<usize> {
    let mut r: &[u8] = payload;
    let line = read_line(&mut r)?;
    let rows = parse_usize_line(&line, 1)?[0];
    let n = checked_len(rows, cols)?;
    read_f64_run_into(&mut r, n, lo)?;
    read_f64_run_into(&mut r, n, hi)?;
    if !r.is_empty() {
        return Err(bad_state("trailing bytes after dense block payload"));
    }
    Ok(rows)
}

/// Decodes a `REC_DENSE_BLOCK` payload into a fresh [`IntervalMatrix`]
/// (backing buffers leased from the pool).
pub fn decode_dense_block(payload: &[u8], cols: usize) -> io::Result<IntervalMatrix> {
    let (mut lo, mut hi) = (pool::take_f64(0), pool::take_f64(0));
    let rows = decode_dense_block_into(payload, cols, &mut lo, &mut hi)?;
    let lo = Matrix::from_vec(rows, cols, lo).map_err(|e| bad_state(e.to_string()))?;
    let hi = Matrix::from_vec(rows, cols, hi).map_err(|e| bad_state(e.to_string()))?;
    IntervalMatrix::from_bounds(lo, hi).map_err(|e| bad_state(e.to_string()))
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
/// staged CSR arrays and returning the block's row count.
///
/// `row_ptr` holds *absolute* offsets into the staged entry arrays: if it
/// is empty the leading `0` is pushed first, and the block's offsets are
/// rebased onto the current last offset, so consecutive blocks stack into
/// one contiguous staged run. Offset monotonicity, the final-offset/entry
///-count agreement and the column range are validated here; the full
/// structural validation (sorted unique columns, proper intervals) runs
/// when a [`CsrIntervalShard`] is assembled from the staged rows.
pub fn decode_csr_block_into(
    payload: &[u8],
    cols: usize,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    lo: &mut Vec<f64>,
    hi: &mut Vec<f64>,
) -> io::Result<usize> {
    let mut r: &[u8] = payload;
    let line = read_line(&mut r)?;
    let dims = parse_usize_line(&line, 2)?;
    let (rows, nnz) = (dims[0], dims[1]);
    let n_offs = rows
        .checked_add(1)
        .ok_or_else(|| bad_state("CSR block row count overflows"))?;
    let mut offs = pool::take_usize(n_offs);
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
    read_f64_run_into(&mut r, nnz, lo)?;
    read_f64_run_into(&mut r, nnz, hi)?;
    if !r.is_empty() {
        return Err(bad_state("trailing bytes after CSR block payload"));
    }
    Ok(rows)
}

/// Decodes a `REC_CSR_BLOCK` payload into a fresh [`CsrIntervalShard`]
/// (backing buffers leased from the pool), running the full structural
/// validation.
pub fn decode_csr_block(payload: &[u8], cols: usize) -> io::Result<CsrIntervalShard> {
    let (mut row_ptr, mut col_idx) = (pool::take_usize(0), pool::take_usize(0));
    let (mut lo, mut hi) = (pool::take_f64(0), pool::take_f64(0));
    let rows = decode_csr_block_into(payload, cols, &mut row_ptr, &mut col_idx, &mut lo, &mut hi)?;
    CsrIntervalShard::new(rows, cols, row_ptr, col_idx, lo, hi)
        .map_err(|e| bad_state(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_block(rows: usize, cols: usize, seed: u64) -> IntervalMatrix {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let lo: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + 0.5).collect();
        IntervalMatrix::from_bounds(
            Matrix::from_vec(rows, cols, lo).unwrap(),
            Matrix::from_vec(rows, cols, hi).unwrap(),
        )
        .unwrap()
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
    fn dense_blocks_round_trip_bit_for_bit() {
        for (rows, cols) in [(4usize, 7usize), (1, 1), (0, 5), (3, 0)] {
            let m = dense_block(rows, cols, 11 + rows as u64);
            let payload = encode_dense_block(&m).unwrap();
            let back = decode_dense_block(&payload, cols).unwrap();
            assert_eq!(m.lo().as_slice(), back.lo().as_slice());
            assert_eq!(m.hi().as_slice(), back.hi().as_slice());
        }
    }

    #[test]
    fn dense_blocks_append_and_stack_into_existing_buffers() {
        let a = dense_block(2, 3, 5);
        let b = dense_block(4, 3, 6);
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_dense_block_into(&encode_dense_block(&a).unwrap(), 3, &mut lo, &mut hi).unwrap(),
            2
        );
        assert_eq!(
            decode_dense_block_into(&encode_dense_block(&b).unwrap(), 3, &mut lo, &mut hi).unwrap(),
            4
        );
        let mut want_lo = a.lo().as_slice().to_vec();
        want_lo.extend_from_slice(b.lo().as_slice());
        assert_eq!(lo, want_lo);
        assert_eq!(hi.len(), 18);
    }

    #[test]
    fn csr_blocks_round_trip_and_stack_with_rebased_offsets() {
        let a = csr_block(3, 6, 21);
        let b = csr_block(5, 6, 22);
        let back = decode_csr_block(&encode_csr_block(&a).unwrap(), 6).unwrap();
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
        assert_eq!((ra, rb), (3, 5));
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
        assert!(decode_csr_block(&good, 1).is_err());
        // Truncated payload is an error, not a panic.
        assert!(decode_csr_block(&good[..good.len() - 5], 6).is_err());
        // Trailing bytes are rejected.
        let mut padded = good.clone();
        padded.extend_from_slice(b"junk");
        assert!(decode_csr_block(&padded, 6).is_err());
        // Empty blocks are fine.
        let empty = csr_block(0, 4, 1);
        let payload = encode_csr_block(&empty).unwrap();
        assert_eq!(decode_csr_block(&payload, 4).unwrap().nnz(), 0);
    }
}
