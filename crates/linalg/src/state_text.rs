//! Bit-exact, line-oriented text serialization helpers for accumulator
//! state.
//!
//! The streaming Gram accumulators ([`crate::GramAccumulator`] and
//! friends) are the only pipeline state that cannot be recomputed from a
//! cached result: their pending row buffers hold a partial chunk whose
//! future rounding depends on every buffered bit. Snapshotting them
//! therefore needs a serialization that round-trips `f64` values
//! **exactly**. These helpers provide that on top of plain text: values
//! are written with Rust's `{:?}` formatting (the shortest decimal that
//! parses back to the identical bits, including `inf`/`-inf`/`NaN`) and
//! read back with `str::parse`, one whitespace-separated line per
//! logical vector. Bulk `f64` payloads use raw little-endian binary
//! runs instead ([`write_f64_run`]/[`read_f64_run`]) — headers stay
//! greppable text, but the hundreds of thousands of values a snapshot
//! restore loads must decode much faster than recomputing them.
//!
//! Readers validate everything they consume — token counts, numeric
//! parses, declared lengths — and report problems as
//! [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` errors rather
//! than panicking, because the snapshot layer upstream treats every
//! error here as "drop this entry and recompute". Declared lengths also
//! bound the initial allocation, so a corrupted header cannot trigger a
//! huge up-front reservation.

use std::io::{self, BufRead, Write};

/// Cap on speculative `Vec` pre-allocation from untrusted declared
/// lengths: allocate at most this many elements up front and let the
/// vector grow organically past it (the token count check still enforces
/// the exact final length).
const PREALLOC_CAP: usize = 1 << 20;

/// An [`io::ErrorKind::InvalidData`] error for malformed state text.
pub fn bad_state(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one line (without its terminator). A missing line — end of the
/// stream where state was still expected — is an `UnexpectedEof` error,
/// so truncated snapshots surface as errors instead of empty vectors.
pub fn read_line(r: &mut dyn BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "unexpected end of stream while reading state",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Writes `vals` as one space-separated line of `{:?}`-formatted floats
/// (an empty slice writes an empty line).
pub fn write_f64_line(w: &mut dyn Write, vals: &[f64]) -> io::Result<()> {
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            w.write_all(b" ")?;
        }
        write!(w, "{v:?}")?;
    }
    w.write_all(b"\n")
}

/// Writes `vals` as one space-separated line of integers.
pub fn write_usize_line(w: &mut dyn Write, vals: &[usize]) -> io::Result<()> {
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            w.write_all(b" ")?;
        }
        write!(w, "{v}")?;
    }
    w.write_all(b"\n")
}

/// Parses a line written by [`write_f64_line`], requiring exactly
/// `expected` values.
pub fn parse_f64_line(line: &str, expected: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(expected.min(PREALLOC_CAP));
    for tok in line.split_ascii_whitespace() {
        if out.len() == expected {
            return Err(bad_state(format!(
                "expected {expected} float values, found more"
            )));
        }
        let v: f64 = tok
            .parse()
            .map_err(|_| bad_state(format!("malformed float value {tok:?}")))?;
        out.push(v);
    }
    if out.len() != expected {
        return Err(bad_state(format!(
            "expected {expected} float values, found {}",
            out.len()
        )));
    }
    Ok(out)
}

/// Parses a line written by [`write_usize_line`], requiring exactly
/// `expected` values.
pub fn parse_usize_line(line: &str, expected: usize) -> io::Result<Vec<usize>> {
    let mut out = Vec::with_capacity(expected.min(PREALLOC_CAP));
    for tok in line.split_ascii_whitespace() {
        if out.len() == expected {
            return Err(bad_state(format!(
                "expected {expected} integer values, found more"
            )));
        }
        let v: usize = tok
            .parse()
            .map_err(|_| bad_state(format!("malformed integer value {tok:?}")))?;
        out.push(v);
    }
    if out.len() != expected {
        return Err(bad_state(format!(
            "expected {expected} integer values, found {}",
            out.len()
        )));
    }
    Ok(out)
}

/// Writes `vals` as a raw little-endian run of `f64` bit patterns — 8
/// bytes per value, terminated by one `\n`. The binary twin of
/// [`write_f64_line`] for bulk payloads (snapshot restores must load
/// state far faster than recomputing it, and text formatting dominates
/// at matrix sizes); bit-exactness is structural, since
/// [`f64::to_bits`] round-trips every pattern including NaN payloads.
pub fn write_f64_run(w: &mut dyn Write, vals: &[f64]) -> io::Result<()> {
    // Convert block-wise into a fixed staging buffer: the inner loop is a
    // plain 8-byte store per value (no per-value capacity bookkeeping),
    // and the staging cost stays bounded regardless of the run length.
    let mut bytes = vec![0u8; vals.len().min(PREALLOC_CAP) * 8];
    for block in vals.chunks(PREALLOC_CAP.max(1)) {
        let staged = &mut bytes[..block.len() * 8];
        for (dst, v) in staged.chunks_exact_mut(8).zip(block) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        w.write_all(staged)?;
    }
    w.write_all(b"\n")
}

/// Reads a run written by [`write_f64_run`], requiring exactly
/// `expected` values plus the terminator. Truncation surfaces as
/// `UnexpectedEof`; the allocation grows with the bytes actually read,
/// so a corrupted declared length cannot trigger a huge up-front
/// reservation.
pub fn read_f64_run(r: &mut dyn BufRead, expected: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(expected.min(PREALLOC_CAP));
    read_f64_run_into(r, expected, &mut out)?;
    Ok(out)
}

/// [`read_f64_run`] appending into a caller-supplied buffer (e.g. one
/// from [`crate::pool::take_f64`] that already has the capacity from a
/// previous round). Appends exactly `expected` values or returns an error
/// with `out` in an unspecified (but valid) state.
pub fn read_f64_run_into(
    r: &mut dyn BufRead,
    expected: usize,
    out: &mut Vec<f64>,
) -> io::Result<()> {
    let nbytes = checked_len(expected, 8)?;
    out.reserve(expected.min(PREALLOC_CAP));
    let mut chunk = [0u8; 8192];
    let mut remaining = nbytes;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        for c in chunk[..take].chunks_exact(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            out.push(f64::from_bits(u64::from_le_bytes(b)));
        }
        remaining -= take;
    }
    let mut sep = [0u8; 1];
    r.read_exact(&mut sep)?;
    if sep[0] != b'\n' {
        return Err(bad_state("missing terminator after binary f64 run"));
    }
    Ok(())
}

/// Writes `vals` as a raw little-endian run of `u64`-encoded `usize`
/// values terminated by one `\n` — the integer twin of
/// [`write_f64_run`], for CSR index payloads that would be needlessly
/// slow as text.
pub fn write_usize_run(w: &mut dyn Write, vals: &[usize]) -> io::Result<()> {
    let mut bytes = vec![0u8; vals.len().min(PREALLOC_CAP) * 8];
    for block in vals.chunks(PREALLOC_CAP.max(1)) {
        let staged = &mut bytes[..block.len() * 8];
        for (dst, &v) in staged.chunks_exact_mut(8).zip(block) {
            dst.copy_from_slice(&(v as u64).to_le_bytes());
        }
        w.write_all(staged)?;
    }
    w.write_all(b"\n")
}

/// Reads a run written by [`write_usize_run`], requiring exactly
/// `expected` values plus the terminator.
pub fn read_usize_run(r: &mut dyn BufRead, expected: usize) -> io::Result<Vec<usize>> {
    let mut out = Vec::with_capacity(expected.min(PREALLOC_CAP));
    read_usize_run_into(r, expected, &mut out)?;
    Ok(out)
}

/// [`read_usize_run`] appending into a caller-supplied buffer — the
/// integer twin of [`read_f64_run_into`] for pooled index buffers.
/// Values that overflow `usize` are malformed data, not a panic.
pub fn read_usize_run_into(
    r: &mut dyn BufRead,
    expected: usize,
    out: &mut Vec<usize>,
) -> io::Result<()> {
    let nbytes = checked_len(expected, 8)?;
    out.reserve(expected.min(PREALLOC_CAP));
    let mut chunk = [0u8; 8192];
    let mut remaining = nbytes;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        for c in chunk[..take].chunks_exact(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            let v = u64::from_le_bytes(b);
            out.push(usize::try_from(v).map_err(|_| bad_state("usize value overflows"))?);
        }
        remaining -= take;
    }
    let mut sep = [0u8; 1];
    r.read_exact(&mut sep)?;
    if sep[0] != b'\n' {
        return Err(bad_state("missing terminator after binary usize run"));
    }
    Ok(())
}

/// `a * b` with overflow reported as malformed data (a corrupted header
/// must not wrap a length computation into a small, "valid" value).
pub fn checked_len(a: usize, b: usize) -> io::Result<usize> {
    a.checked_mul(b)
        .ok_or_else(|| bad_state(format!("dimension product {a}*{b} overflows")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_line_round_trips_every_bit_pattern_class() {
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-300,
            -2.2250738585072014e-308,
        ];
        let mut buf = Vec::new();
        write_f64_line(&mut buf, &vals).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let back = parse_f64_line(line.trim_end(), vals.len()).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-trips");
        }
    }

    #[test]
    fn parse_rejects_wrong_counts_and_garbage() {
        assert!(parse_f64_line("1.0 2.0", 3).is_err());
        assert!(parse_f64_line("1.0 2.0 3.0 4.0", 3).is_err());
        assert!(parse_f64_line("1.0 abc", 2).is_err());
        assert!(parse_usize_line("1 2 junk", 3).is_err());
        assert!(parse_usize_line("-1", 1).is_err());
        assert!(parse_f64_line("", 0).is_ok());
        assert!(parse_usize_line("7", 1).is_ok());
    }

    #[test]
    fn read_line_reports_eof_and_strips_terminators() {
        let mut r = io::BufReader::new(&b"abc\r\ndef"[..]);
        assert_eq!(read_line(&mut r).unwrap(), "abc");
        assert_eq!(read_line(&mut r).unwrap(), "def");
        let err = read_line(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn f64_run_round_trips_every_bit_pattern_class_and_detects_truncation() {
        let vals = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE / 8.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut buf = Vec::new();
        write_f64_run(&mut buf, &vals).unwrap();
        assert_eq!(buf.len(), vals.len() * 8 + 1);
        let back = read_f64_run(&mut &buf[..], vals.len()).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-trips");
        }
        // Truncated run → UnexpectedEof, never a short vector.
        let err = read_f64_run(&mut &buf[..buf.len() - 5], vals.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Wrong terminator → InvalidData.
        let mut mangled = buf.clone();
        *mangled.last_mut().unwrap() = b'x';
        let err = read_f64_run(&mut &mangled[..], vals.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn usize_run_round_trips_and_appends_into_existing_buffers() {
        let vals = [0usize, 1, 7, usize::MAX, 1 << 40];
        let mut buf = Vec::new();
        write_usize_run(&mut buf, &vals).unwrap();
        assert_eq!(buf.len(), vals.len() * 8 + 1);
        assert_eq!(read_usize_run(&mut &buf[..], vals.len()).unwrap(), vals);
        // The _into variant appends after existing contents.
        let mut out = vec![99usize];
        read_usize_run_into(&mut &buf[..], vals.len(), &mut out).unwrap();
        assert_eq!(out[0], 99);
        assert_eq!(&out[1..], &vals);
        // Truncation → UnexpectedEof; wrong terminator → InvalidData.
        let err = read_usize_run(&mut &buf[..buf.len() - 3], vals.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut mangled = buf.clone();
        *mangled.last_mut().unwrap() = b'x';
        let err = read_usize_run(&mut &mangled[..], vals.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn f64_run_into_appends_after_existing_contents() {
        let vals = [1.5f64, -0.25, f64::NAN];
        let mut buf = Vec::new();
        write_f64_run(&mut buf, &vals).unwrap();
        let mut out = vec![7.0f64];
        read_f64_run_into(&mut &buf[..], vals.len(), &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 7.0);
        for (a, b) in vals.iter().zip(&out[1..]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn checked_len_rejects_overflow() {
        assert_eq!(checked_len(3, 4).unwrap(), 12);
        assert!(checked_len(usize::MAX, 2).is_err());
    }
}
