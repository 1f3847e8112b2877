//! Bit-exact state serialization helpers: text header lines plus raw
//! binary runs.
//!
//! The streaming Gram accumulators ([`crate::GramAccumulator`] and
//! friends) are the only pipeline state that cannot be recomputed from a
//! cached result: their pending row buffers hold a partial chunk whose
//! future rounding depends on every buffered bit. Snapshotting them
//! therefore needs a serialization that round-trips `f64` values
//! **exactly**. Every state payload here — accumulator state, snapshot
//! entries, shard blocks — has the same shape: short greppable text
//! header lines of integers ([`write_usize_line`] /
//! [`parse_usize_line`], read with [`read_line`]) that give the shapes,
//! then the values as raw little-endian binary runs ([`write_f64_run`] /
//! [`read_f64_run`], [`write_usize_run`] / [`read_usize_run_into`]).
//! Bit-exactness is structural — [`f64::to_bits`] round-trips every
//! pattern, NaN payloads included — and a binary run decodes far faster
//! than a decimal parse, which a warm restart needs to beat the
//! recompute it replaces.
//!
//! Readers validate everything they consume — token counts, numeric
//! parses, declared lengths — and report problems as
//! [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` errors rather
//! than panicking, because the snapshot layer upstream treats every
//! error here as "drop this entry and recompute". Decoded values grow
//! their vectors with the bytes that actually arrive, never with a
//! declared length, so a header that lies about a size cannot make a
//! reader allocate more than its input holds.

use std::io::{self, BufRead, Write};

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

/// Parses a line written by [`write_usize_line`], requiring exactly
/// `expected` values.
pub fn parse_usize_line(line: &str, expected: usize) -> io::Result<Vec<usize>> {
    let mut out = Vec::new();
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

/// Bytes of the stack buffer runs are staged through on write.
const STAGE_BYTES: usize = 16 << 10;

/// Writes `vals` as 8-byte little-endian words, staged block-wise through
/// a stack buffer (a plain 8-byte store per value, no allocation), then
/// the `\n` terminator.
fn write_words<T: Copy>(w: &mut dyn Write, vals: &[T], word: impl Fn(T) -> u64) -> io::Result<()> {
    let mut staged = [0u8; STAGE_BYTES];
    for block in vals.chunks(STAGE_BYTES / 8) {
        let bytes = &mut staged[..block.len() * 8];
        for (dst, &v) in bytes.chunks_exact_mut(8).zip(block) {
            dst.copy_from_slice(&word(v).to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    w.write_all(b"\n")
}

/// Feeds a run of `n` 8-byte words to `take` in slices of whole words —
/// straight out of the reader's buffer where it holds them, so a slice is
/// never longer than what has arrived — then checks the `\n`
/// terminator. Truncation surfaces as `UnexpectedEof`.
fn read_words(
    r: &mut dyn BufRead,
    n: usize,
    what: &str,
    mut take: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut remaining = checked_len(n, 8)?;
    let mut word = [0u8; 8];
    while remaining > 0 {
        let buf = r.fill_buf()?;
        let whole = buf.len().min(remaining) / 8 * 8;
        if whole == 0 {
            // Fewer than 8 bytes buffered: a word straddles the buffer.
            r.read_exact(&mut word)?;
            take(&word)?;
            remaining -= 8;
        } else {
            take(&buf[..whole])?;
            r.consume(whole);
            remaining -= whole;
        }
    }
    let mut sep = [0u8; 1];
    r.read_exact(&mut sep)?;
    if sep[0] != b'\n' {
        return Err(bad_state(format!(
            "missing terminator after binary {what} run"
        )));
    }
    Ok(())
}

/// Writes `vals` as a raw little-endian run of `f64` bit patterns — 8
/// bytes per value, terminated by one `\n`. Bit-exactness is
/// structural, since [`f64::to_bits`] round-trips every pattern
/// including NaN payloads.
pub fn write_f64_run(w: &mut dyn Write, vals: &[f64]) -> io::Result<()> {
    write_words(w, vals, f64::to_bits)
}

/// Reads a run written by [`write_f64_run`], requiring exactly
/// `expected` values plus the terminator. Truncation surfaces as
/// `UnexpectedEof`; the vector grows with the bytes actually read, so a
/// corrupted declared length cannot trigger a huge up-front reservation.
pub fn read_f64_run(r: &mut dyn BufRead, expected: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::new();
    read_words(r, expected, "f64", |bytes| {
        let decode = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        out.extend(bytes.chunks_exact(8).map(decode));
        Ok(())
    })?;
    Ok(out)
}

/// Writes `vals` as a raw little-endian run of `u64`-encoded `usize`
/// values terminated by one `\n` — the integer twin of
/// [`write_f64_run`], for CSR index payloads that would be needlessly
/// slow as text.
pub fn write_usize_run(w: &mut dyn Write, vals: &[usize]) -> io::Result<()> {
    write_words(w, vals, |v| v as u64)
}

/// Reads a run written by [`write_usize_run`], requiring exactly
/// `expected` values plus the terminator, and appends them to `out` (e.g.
/// a pooled index buffer that already has the capacity from a previous
/// round). Values that overflow `usize` are malformed data, not a panic;
/// on error `out` is left in an unspecified (but valid) state.
pub fn read_usize_run_into(
    r: &mut dyn BufRead,
    expected: usize,
    out: &mut Vec<usize>,
) -> io::Result<()> {
    read_words(r, expected, "usize", |bytes| {
        out.reserve(bytes.len() / 8);
        for c in bytes.chunks_exact(8) {
            let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            out.push(usize::try_from(v).map_err(|_| bad_state("usize value overflows"))?);
        }
        Ok(())
    })
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
    fn parse_rejects_wrong_counts_and_garbage() {
        assert!(parse_usize_line("1 2", 3).is_err());
        assert!(parse_usize_line("1 2 3 4", 3).is_err());
        assert!(parse_usize_line("1 2 junk", 3).is_err());
        assert!(parse_usize_line("-1", 1).is_err());
        assert!(parse_usize_line("", 0).is_ok());
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
        let mut back = Vec::new();
        read_usize_run_into(&mut &buf[..], vals.len(), &mut back).unwrap();
        assert_eq!(back, vals);
        // Values append after existing contents.
        let mut out = vec![99usize];
        read_usize_run_into(&mut &buf[..], vals.len(), &mut out).unwrap();
        assert_eq!(out[0], 99);
        assert_eq!(&out[1..], &vals);
        // Truncation → UnexpectedEof; wrong terminator → InvalidData.
        let err = read_usize_run_into(&mut &buf[..buf.len() - 3], vals.len(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut mangled = buf.clone();
        *mangled.last_mut().unwrap() = b'x';
        let err = read_usize_run_into(&mut &mangled[..], vals.len(), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checked_len_rejects_overflow() {
        assert_eq!(checked_len(3, 4).unwrap(), 12);
        assert!(checked_len(usize::MAX, 2).is_err());
    }
}
