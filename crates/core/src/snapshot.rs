//! Crash-safe warm restarts: versioned on-disk snapshots of a
//! [`Pipeline`] session's memoized state.
//!
//! A long-lived session accumulates two kinds of expensive state: the
//! [`StageCache`](crate::pipeline::StageCache) of memoized stage outputs,
//! and the retained interval-Gram accumulator that makes
//! [`Pipeline::append_rows`] an `O(Δn·m²)` refresh instead of an
//! `O(n·m²)` recompute. This module serializes both to a versioned,
//! checksummed snapshot file so a killed process resumes warm: the next
//! session over the same matrix restores validated entries as cache
//! *hits* and keeps appending incrementally, with results bitwise
//! identical to a cold recompute (every `f64` round-trips through its
//! raw bit pattern, so every bit survives).
//!
//! ## File format (version 1)
//!
//! Text record headers, binary payloads; payload byte counts make the
//! records self-delimiting:
//!
//! ```text
//! ivmf snapshot v2
//! matrix <content-id:016x>
//! entry <stage> <fingerprint:016x> <nbytes> <payload-hash:016x>
//! <payload: exactly nbytes bytes, little-endian u64/f64-bits fields>
//! …
//! gram <nbytes> <payload-hash:016x>
//! <payload: dense|sparse accumulator state>
//! end <file-hash:016x>
//! ```
//!
//! Every payload carries its own FNV-1a content hash, and the trailing
//! `end` record hashes everything before it. Entries are sorted by stage
//! name and fingerprint, so snapshotting the same session state twice
//! produces identical bytes.
//!
//! ## Recovery policy
//!
//! Loading **never panics and never restores silently wrong state** —
//! the hashes gate every entry, and each failure drops the smallest
//! possible scope, falling back to recomputation:
//!
//! | failure | effect |
//! |---|---|
//! | file missing | nothing restored (cold start) |
//! | unknown version line | nothing restored |
//! | `matrix` id ≠ session's content id | every record dropped (stale snapshot) |
//! | whole-file hash mismatch / missing `end` | per-entry salvage: each record stands on its own hash |
//! | payload hash mismatch (bit rot) | that record dropped |
//! | truncated payload (torn write, kill) | that record and the unreadable tail dropped |
//! | undecodable payload | that record dropped |
//! | accumulator row count ≠ session rows | gram record dropped |
//!
//! Dropped state is simply recomputed on next use; restored entries are
//! consumed as ordinary cache hits.
//!
//! ## Automatic warm restarts
//!
//! With the `IVMF_SNAPSHOT_DIR` environment knob set
//! ([`ivmf_env::snapshot_dir`]), every session restores
//! `<dir>/ivmf_snapshot_<content-id:016x>.snap` on construction and
//! writes it back on drop (atomically: write-to-temp, fsync, rename —
//! see `ivmf_data::atomic`). Unset, snapshots happen only through the
//! explicit [`Pipeline::snapshot_to`] / [`Pipeline::restore_from`]
//! calls. Bit-exactness holds either way: entry payloads round-trip
//! every `f64` through its raw bit pattern, so a restored stage output
//! is indistinguishable from the computed one.

use std::any::Any;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use ivmf_align::Alignment;
use ivmf_interval::{IntervalMatrix, IntervalShard, StreamingIntervalGram};
use ivmf_linalg::state_text::{bad_state, checked_len, read_line};
use ivmf_linalg::svd::Svd;
use ivmf_linalg::Matrix;

use crate::isvd::BoundEigen;
use crate::pipeline::{AlignedSolveOut, BoundSvds, GramState, Pipeline, StageId, StageKey};

/// First line of every snapshot this version of the crate writes. A
/// different line (future format bump, corruption) restores nothing.
const VERSION_LINE: &str = "ivmf snapshot v2";

/// Outcome of a snapshot restore: how much state survived validation.
///
/// A report is informational — restore never fails the session; dropped
/// records are recomputed on next use.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Stage-cache entries that validated and were seeded into the cache.
    pub restored: usize,
    /// Records rejected by any validation step (hash, version, stale
    /// matrix id, truncation, undecodable payload).
    pub dropped: usize,
    /// True when the retained Gram accumulator was restored, re-arming
    /// incremental [`Pipeline::append_rows`].
    pub gram_restored: bool,
    /// True when the whole-file checksum verified. False switches the
    /// loader to per-entry salvage — [`RestoreReport::restored`] entries
    /// are still individually validated.
    pub checksum_ok: bool,
}

// ---------------------------------------------------------------------------
// Hashing.
// ---------------------------------------------------------------------------

/// The payload and whole-file content hash of the snapshot format
/// (hex-printed with 16 digits): the workspace's shared word-parallel
/// FNV-1a from [`ivmf_data::fnv`] — the same digest the binary shard
/// records carry, so snapshot validation keeps the one hashing
/// implementation and its throughput. Swapping the
/// earlier word-at-a-time variant for the shared one changed every
/// digest, hence the `v2` version line: `v1` snapshots restore nothing
/// (a clean cold start) instead of tripping checksum salvage.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    ivmf_data::fnv::fnv1a64(bytes)
}

fn stage_from_name(name: &str) -> Option<StageId> {
    use StageId::*;
    let all = [
        Midpoint,
        MidpointSvd,
        BoundSvd,
        SvdAlign,
        IntervalGram,
        BoundEigenLo,
        BoundEigenHi,
        LeftRecover,
        GramAlign,
        AlignedSolve,
        RightTighten,
    ];
    all.into_iter().find(|s| s.name() == name)
}

// ---------------------------------------------------------------------------
// Payload codecs: binary little-endian (bit-exact via `f64::to_bits`, and
// an order of magnitude faster to load than text — a warm restart must
// beat the recompute it replaces). Every read is bounds-checked against
// the record's byte count before it allocates.
// ---------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    buf.reserve(vals.len() * 8);
    for v in vals {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn take_u64(r: &mut &[u8]) -> io::Result<u64> {
    if r.len() < 8 {
        return Err(bad_state("truncated binary field"));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&r[..8]);
    *r = &r[8..];
    Ok(u64::from_le_bytes(b))
}

fn take_usize(r: &mut &[u8]) -> io::Result<usize> {
    usize::try_from(take_u64(r)?).map_err(|_| bad_state("binary length does not fit usize"))
}

fn take_f64s(r: &mut &[u8], len: usize) -> io::Result<Vec<f64>> {
    let nbytes = len
        .checked_mul(8)
        .ok_or_else(|| bad_state("binary f64 run length overflows"))?;
    if r.len() < nbytes {
        // Checked before the allocation: a corrupted length can never
        // trigger an oversized reserve.
        return Err(bad_state("truncated binary f64 run"));
    }
    let mut out = Vec::with_capacity(len);
    for chunk in r[..nbytes].chunks_exact(8) {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        out.push(f64::from_bits(u64::from_le_bytes(b)));
    }
    *r = &r[nbytes..];
    Ok(out)
}

fn write_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    put_f64s(buf, m.as_slice());
}

fn read_matrix(r: &mut &[u8]) -> io::Result<Matrix> {
    let rows = take_usize(r)?;
    let cols = take_usize(r)?;
    let len = checked_len(rows, cols)?;
    let data = take_f64s(r, len)?;
    Matrix::from_vec(rows, cols, data).map_err(|e| bad_state(e.to_string()))
}

fn write_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    put_u64(buf, v.len() as u64);
    put_f64s(buf, v);
}

fn read_f64s(r: &mut &[u8]) -> io::Result<Vec<f64>> {
    let len = take_usize(r)?;
    take_f64s(r, len)
}

fn write_usizes(buf: &mut Vec<u8>, v: &[usize]) {
    put_u64(buf, v.len() as u64);
    for &x in v {
        put_u64(buf, x as u64);
    }
}

fn read_usizes(r: &mut &[u8]) -> io::Result<Vec<usize>> {
    let len = take_usize(r)?;
    if r.len()
        < len
            .checked_mul(8)
            .ok_or_else(|| bad_state("length overflows"))?
    {
        return Err(bad_state("truncated binary usize run"));
    }
    (0..len).map(|_| take_usize(r)).collect()
}

fn write_interval(buf: &mut Vec<u8>, m: &IntervalMatrix) {
    write_matrix(buf, m.lo());
    write_matrix(buf, m.hi());
}

fn read_interval(r: &mut &[u8]) -> io::Result<IntervalMatrix> {
    let lo = read_matrix(r)?;
    let hi = read_matrix(r)?;
    IntervalMatrix::from_bounds(lo, hi).map_err(|e| bad_state(e.to_string()))
}

fn write_svd(buf: &mut Vec<u8>, s: &Svd) {
    write_matrix(buf, &s.u);
    write_f64s(buf, &s.singular_values);
    write_matrix(buf, &s.v);
}

fn read_svd(r: &mut &[u8]) -> io::Result<Svd> {
    Ok(Svd {
        u: read_matrix(r)?,
        singular_values: read_f64s(r)?,
        v: read_matrix(r)?,
    })
}

fn write_alignment(buf: &mut Vec<u8>, a: &Alignment) {
    write_usizes(buf, &a.mapping);
    let flips: Vec<usize> = a.flip.iter().map(|&f| usize::from(f)).collect();
    write_usizes(buf, &flips);
    write_f64s(buf, &a.matched_similarity);
}

fn read_alignment(r: &mut &[u8]) -> io::Result<Alignment> {
    let mapping = read_usizes(r)?;
    let flips = read_usizes(r)?;
    let matched_similarity = read_f64s(r)?;
    if flips.len() != mapping.len() || matched_similarity.len() != mapping.len() {
        return Err(bad_state("alignment field lengths disagree"));
    }
    if flips.iter().any(|&f| f > 1) {
        return Err(bad_state("alignment flip flags must be 0 or 1"));
    }
    Ok(Alignment {
        mapping,
        flip: flips.into_iter().map(|f| f == 1).collect(),
        matched_similarity,
    })
}

fn write_bound_eigen(buf: &mut Vec<u8>, e: &BoundEigen) {
    write_matrix(buf, &e.v);
    write_f64s(buf, &e.sigma);
}

fn read_bound_eigen(r: &mut &[u8]) -> io::Result<BoundEigen> {
    Ok(BoundEigen {
        v: read_matrix(r)?,
        sigma: read_f64s(r)?,
    })
}

fn write_aligned_solve(buf: &mut Vec<u8>, s: &AlignedSolveOut) {
    write_matrix(buf, &s.v_lo);
    write_f64s(buf, &s.sigma_lo);
    write_interval(buf, &s.u);
    write_matrix(buf, &s.sigma_inv);
}

fn read_aligned_solve(r: &mut &[u8]) -> io::Result<AlignedSolveOut> {
    Ok(AlignedSolveOut {
        v_lo: read_matrix(r)?,
        sigma_lo: read_f64s(r)?,
        u: read_interval(r)?,
        sigma_inv: read_matrix(r)?,
    })
}

/// Serializes one cache entry's payload, or `None` when the stored value
/// does not downcast to the stage's documented payload type (foreign
/// entry on a shared cache — skipped, never corrupted).
fn encode_payload(stage: StageId, value: &Rc<dyn Any>) -> Option<Vec<u8>> {
    let mut buf: Vec<u8> = Vec::new();
    let ok = match stage {
        StageId::Midpoint => match value.downcast_ref::<Matrix>() {
            Some(m) => {
                write_matrix(&mut buf, m);
                true
            }
            None => false,
        },
        StageId::MidpointSvd => match value.downcast_ref::<Svd>() {
            Some(s) => {
                write_svd(&mut buf, s);
                true
            }
            None => false,
        },
        StageId::BoundSvd => match value.downcast_ref::<BoundSvds>() {
            Some(s) => {
                write_svd(&mut buf, &s.lo);
                write_svd(&mut buf, &s.hi);
                true
            }
            None => false,
        },
        StageId::SvdAlign | StageId::GramAlign => match value.downcast_ref::<Alignment>() {
            Some(a) => {
                write_alignment(&mut buf, a);
                true
            }
            None => false,
        },
        StageId::IntervalGram => match value.downcast_ref::<IntervalMatrix>() {
            Some(m) => {
                write_interval(&mut buf, m);
                true
            }
            None => false,
        },
        StageId::BoundEigenLo | StageId::BoundEigenHi => match value.downcast_ref::<BoundEigen>() {
            Some(e) => {
                write_bound_eigen(&mut buf, e);
                true
            }
            None => false,
        },
        StageId::LeftRecover | StageId::RightTighten => {
            match value.downcast_ref::<(Matrix, Matrix)>() {
                Some((a, b)) => {
                    write_matrix(&mut buf, a);
                    write_matrix(&mut buf, b);
                    true
                }
                None => false,
            }
        }
        StageId::AlignedSolve => match value.downcast_ref::<AlignedSolveOut>() {
            Some(s) => {
                write_aligned_solve(&mut buf, s);
                true
            }
            None => false,
        },
    };
    ok.then_some(buf)
}

fn encode_gram(acc: &StreamingIntervalGram) -> io::Result<Vec<u8>> {
    let mut buf: Vec<u8> = Vec::new();
    writeln!(buf, "{}", if acc.is_csr() { "sparse" } else { "dense" })?;
    acc.write_state(&mut buf)?;
    Ok(buf)
}

fn decode_gram(payload: &[u8]) -> io::Result<StreamingIntervalGram> {
    let mut r: &[u8] = payload;
    let r: &mut dyn BufRead = &mut r;
    let csr = match read_line(r)?.as_str() {
        "dense" => false,
        "sparse" => true,
        other => {
            return Err(bad_state(format!(
                "unknown gram accumulator representation '{other}'"
            )))
        }
    };
    let acc = StreamingIntervalGram::read_state(r)?;
    if acc.is_csr() != csr {
        return Err(bad_state(
            "gram accumulator state disagrees with its representation tag",
        ));
    }
    Ok(acc)
}

// ---------------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------------

/// Byte cursor over the snapshot body: lines for the record headers,
/// exact byte runs for the payloads (which may themselves contain
/// newlines).
struct Records<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Records<'a> {
    fn line(&mut self) -> Option<&'a str> {
        let rest = self.buf.get(self.pos..)?;
        let end = rest.iter().position(|&b| b == b'\n')?;
        self.pos += end + 1;
        std::str::from_utf8(&rest[..end]).ok()
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let rest = self.buf.get(self.pos..)?;
        if rest.len() < n {
            return None;
        }
        self.pos += n;
        Some(&rest[..n])
    }

    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn parse_hex_u64(tok: &str) -> Option<u64> {
    u64::from_str_radix(tok, 16).ok()
}

/// `entry <stage> <fingerprint:016x> <nbytes> <hash:016x>`
fn parse_entry_line(line: &str) -> Option<(&str, u64, usize, u64)> {
    let mut it = line.split_whitespace();
    if it.next() != Some("entry") {
        return None;
    }
    let stage = it.next()?;
    let fingerprint = parse_hex_u64(it.next()?)?;
    let nbytes: usize = it.next()?.parse().ok()?;
    let hash = parse_hex_u64(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some((stage, fingerprint, nbytes, hash))
}

/// `gram <nbytes> <hash:016x>`
fn parse_gram_line(line: &str) -> Option<(usize, u64)> {
    let mut it = line.split_whitespace();
    if it.next() != Some("gram") {
        return None;
    }
    let nbytes: usize = it.next()?.parse().ok()?;
    let hash = parse_hex_u64(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some((nbytes, hash))
}

/// `matrix <id:016x>`
fn parse_matrix_line(line: &str) -> Option<u64> {
    let mut it = line.split_whitespace();
    if it.next() != Some("matrix") {
        return None;
    }
    let id = parse_hex_u64(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some(id)
}

/// Splits off a well-formed trailing `end <hash:016x>\n` record,
/// returning the body before it and the declared whole-file hash.
fn split_end_record(buf: &[u8]) -> Option<(&[u8], u64)> {
    if buf.last() != Some(&b'\n') {
        return None;
    }
    let without_nl = &buf[..buf.len() - 1];
    let start = without_nl
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let line = std::str::from_utf8(&without_nl[start..]).ok()?;
    let rest = line.strip_prefix("end ")?;
    let hash = parse_hex_u64(rest.trim())?;
    Some((&buf[..start], hash))
}

/// The snapshot file a session with content id `content_id` saves to and
/// restores from under `IVMF_SNAPSHOT_DIR`.
pub fn snapshot_path(dir: &Path, content_id: u64) -> PathBuf {
    dir.join(format!("ivmf_snapshot_{content_id:016x}.snap"))
}

// ---------------------------------------------------------------------------
// Pipeline entry points.
// ---------------------------------------------------------------------------

impl<S: IntervalShard> Pipeline<'_, S> {
    /// Serializes the session's snapshot — the cache entries keyed to its
    /// matrix plus the retained Gram accumulator — to `w`. See the
    /// [module docs](self) for the format.
    pub fn write_snapshot(&self, w: &mut dyn Write) -> io::Result<()> {
        let entries: &HashMap<StageKey, Rc<dyn Any>> = self.cache.entries();
        let mut keys: Vec<&StageKey> = entries.keys().filter(|k| k.matrix == self.matrix).collect();
        // Deterministic record order: identical session state produces
        // identical snapshot bytes.
        keys.sort_by_key(|k| (k.stage.name(), k.fingerprint));
        let mut body: Vec<u8> = Vec::new();
        writeln!(body, "{VERSION_LINE}")?;
        writeln!(body, "matrix {:016x}", self.matrix)?;
        for key in keys {
            let Some(payload) = encode_payload(key.stage, &entries[key]) else {
                continue;
            };
            writeln!(
                body,
                "entry {} {:016x} {} {:016x}",
                key.stage.name(),
                key.fingerprint,
                payload.len(),
                fnv1a_bytes(&payload)
            )?;
            body.extend_from_slice(&payload);
        }
        if let Some(state) = &self.gram_state {
            if state.matrix == self.matrix {
                let payload = encode_gram(&state.acc)?;
                writeln!(
                    body,
                    "gram {} {:016x}",
                    payload.len(),
                    fnv1a_bytes(&payload)
                )?;
                body.extend_from_slice(&payload);
            }
        }
        w.write_all(&body)?;
        writeln!(w, "end {:016x}", fnv1a_bytes(&body))?;
        w.flush()
    }

    /// Writes the session's snapshot to `path` atomically
    /// (`ivmf_data::atomic::atomic_write`): a crash mid-save leaves any
    /// previously committed snapshot untouched.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        ivmf_data::atomic::atomic_write(path, |w| self.write_snapshot(w))
    }

    /// Restores a snapshot from `r` into the session, validating every
    /// record (see the recovery-policy table in the [module docs](self)).
    /// Never fails: any corruption — including an I/O error partway
    /// through the stream — drops the affected records and keeps the
    /// validated rest, and the report says how much survived.
    pub fn read_snapshot(&mut self, r: &mut dyn io::Read) -> RestoreReport {
        let mut report = RestoreReport::default();
        let mut buf = Vec::new();
        // A read error partway leaves the prefix in `buf`: salvage it.
        let _ = r.read_to_end(&mut buf);
        if buf.is_empty() {
            // An empty file is a cold start, not a corrupt record.
            return report;
        }
        let body: &[u8] = match split_end_record(&buf) {
            Some((body, declared)) if fnv1a_bytes(body) == declared => {
                report.checksum_ok = true;
                body
            }
            // Missing or mismatched file hash: per-entry salvage over
            // whatever precedes the end record (or the whole buffer).
            Some((body, _)) => body,
            None => &buf,
        };
        let mut records = Records { buf: body, pos: 0 };
        if records.line() != Some(VERSION_LINE) {
            report.dropped += 1;
            return report;
        }
        let Some(file_matrix) = records.line().and_then(parse_matrix_line) else {
            report.dropped += 1;
            return report;
        };
        loop {
            let Some(line) = records.line() else {
                if !records.at_end() {
                    // Unterminated trailing bytes: a torn record.
                    report.dropped += 1;
                }
                break;
            };
            if let Some((stage_name, fingerprint, nbytes, hash)) = parse_entry_line(line) {
                let Some(payload) = records.bytes(nbytes) else {
                    report.dropped += 1;
                    break;
                };
                if fnv1a_bytes(payload) != hash || file_matrix != self.matrix {
                    report.dropped += 1;
                    continue;
                }
                let Some(stage) = stage_from_name(stage_name) else {
                    report.dropped += 1;
                    continue;
                };
                match self.restore_entry(stage, fingerprint, payload) {
                    Ok(()) => report.restored += 1,
                    Err(_) => report.dropped += 1,
                }
            } else if let Some((nbytes, hash)) = parse_gram_line(line) {
                let Some(payload) = records.bytes(nbytes) else {
                    report.dropped += 1;
                    break;
                };
                if fnv1a_bytes(payload) != hash || file_matrix != self.matrix {
                    report.dropped += 1;
                    continue;
                }
                match decode_gram(payload) {
                    Ok(acc) if acc.rows_seen() == self.shape().0 => {
                        self.gram_state = Some(GramState {
                            matrix: self.matrix,
                            acc,
                        });
                        report.gram_restored = true;
                    }
                    _ => report.dropped += 1,
                }
            } else {
                // Unrecognized record header: payload boundaries are
                // unknowable from here on.
                report.dropped += 1;
                break;
            }
        }
        report
    }

    /// Seeds one validated entry into the cache under the session's
    /// matrix id. Each stage decodes to its documented payload type; a
    /// payload that fails to decode errors out and is dropped by the
    /// caller.
    fn restore_entry(
        &mut self,
        stage: StageId,
        fingerprint: u64,
        payload: &[u8],
    ) -> io::Result<()> {
        let key = StageKey {
            matrix: self.matrix,
            fingerprint,
            stage,
        };
        let mut slice: &[u8] = payload;
        let r = &mut slice;
        match stage {
            StageId::Midpoint => self.cache.seed(key, Rc::new(read_matrix(r)?)),
            StageId::MidpointSvd => self.cache.seed(key, Rc::new(read_svd(r)?)),
            StageId::BoundSvd => self.cache.seed(
                key,
                Rc::new(BoundSvds {
                    lo: read_svd(r)?,
                    hi: read_svd(r)?,
                }),
            ),
            StageId::SvdAlign | StageId::GramAlign => {
                self.cache.seed(key, Rc::new(read_alignment(r)?))
            }
            StageId::IntervalGram => self.cache.seed(key, Rc::new(read_interval(r)?)),
            StageId::BoundEigenLo | StageId::BoundEigenHi => {
                self.cache.seed(key, Rc::new(read_bound_eigen(r)?))
            }
            StageId::LeftRecover | StageId::RightTighten => self
                .cache
                .seed(key, Rc::new((read_matrix(r)?, read_matrix(r)?))),
            StageId::AlignedSolve => self.cache.seed(key, Rc::new(read_aligned_solve(r)?)),
        }
        Ok(())
    }

    /// Restores a snapshot file into the session. A missing file is a
    /// cold start (empty report), an unreadable or corrupted one restores
    /// what validates — only I/O errors other than `NotFound` on *open*
    /// surface as errors.
    pub fn restore_from(&mut self, path: impl AsRef<Path>) -> io::Result<RestoreReport> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(RestoreReport::default()),
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        Ok(self.read_snapshot(&mut reader))
    }

    /// Load-on-construct half of the `IVMF_SNAPSHOT_DIR` knob: called by
    /// the constructors; a no-op when the knob is unset, and silent on
    /// failure (a broken snapshot must never break a session — it just
    /// starts cold).
    pub(crate) fn auto_restore(&mut self) {
        if let Some(dir) = ivmf_env::snapshot_dir() {
            let _ = self.restore_from(snapshot_path(&dir, self.matrix));
        }
    }

    /// Save-on-drop half of the `IVMF_SNAPSHOT_DIR` knob: a no-op when
    /// the knob is unset or the session holds no state worth saving, and
    /// silent on failure (Drop must not panic; the atomic write already
    /// guarantees no torn file).
    fn auto_save(&mut self) {
        let worth_saving = self
            .gram_state
            .as_ref()
            .is_some_and(|s| s.matrix == self.matrix)
            || self.cache.entries().keys().any(|k| k.matrix == self.matrix);
        if !worth_saving {
            return;
        }
        if let Some(dir) = ivmf_env::snapshot_dir() {
            let _ = std::fs::create_dir_all(&dir);
            let _ = self.snapshot_to(snapshot_path(&dir, self.matrix));
        }
    }
}

impl<S: IntervalShard> Drop for Pipeline<'_, S> {
    fn drop(&mut self) {
        self.auto_save();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_results_bitwise, random_interval_matrix};
    use crate::{IsvdAlgorithm, IsvdConfig};
    use ivmf_interval::RowShardedIntervalMatrix;

    /// These tests drive explicit snapshot buffers/files; the automatic
    /// knob must not interfere (it is owned by the dedicated
    /// integration-test binary).
    fn no_auto_snapshots() {
        std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
    }

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ivmf_snap_{}_{tag}.snap", std::process::id()))
    }

    fn snapshot_bytes(p: &Pipeline<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        p.write_snapshot(&mut buf).unwrap();
        buf
    }

    /// Number of `entry`/`gram` records a snapshot holds.
    fn record_count(bytes: &[u8]) -> usize {
        let (body, _) = split_end_record(bytes).unwrap();
        let mut records = Records { buf: body, pos: 0 };
        records.line().unwrap();
        records.line().unwrap();
        let mut count = 0;
        while let Some(line) = records.line() {
            if let Some((_, _, nbytes, _)) = parse_entry_line(line) {
                records.bytes(nbytes).unwrap();
            } else if let Some((nbytes, _)) = parse_gram_line(line) {
                records.bytes(nbytes).unwrap();
            } else {
                panic!("unrecognized record header: {line}");
            }
            count += 1;
        }
        count
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        no_auto_snapshots();
        let m = random_interval_matrix(90, 11, 7, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
        p.run_all().unwrap();
        let a = snapshot_bytes(&p);
        let b = snapshot_bytes(&p);
        assert_eq!(a, b, "same session state must snapshot identically");
        assert!(a.starts_with(VERSION_LINE.as_bytes()));
        let (_, declared) = split_end_record(&a).unwrap();
        assert_eq!(
            declared,
            fnv1a_bytes(&a[..a.len() - "end 0000000000000000\n".len()])
        );
    }

    #[test]
    fn round_trip_restores_every_stage_and_serves_pure_hits_bitwise() {
        no_auto_snapshots();
        let m = random_interval_matrix(91, 12, 8, 1.0);
        let config = IsvdConfig::new(4);
        let mut warm = Pipeline::new(&m, config).unwrap();
        let original = warm.run_all().unwrap();
        let bytes = snapshot_bytes(&warm);
        let total = record_count(&bytes);
        assert!(total > 5, "run_all should populate many stages");

        let mut restored = Pipeline::new(&m, config).unwrap();
        let report = restored.read_snapshot(&mut &bytes[..]);
        assert!(report.checksum_ok);
        assert!(report.gram_restored);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.restored, total - 1, "all records except the gram");

        let rerun = restored.run_all().unwrap();
        for r in &rerun {
            assert_eq!(r.timings.cache_misses, 0, "restored session must only hit");
            assert!(r.stages.iter().all(|e| e.cache_hit));
        }
        assert_results_bitwise(&rerun, &original, "restored run");
    }

    #[test]
    fn restored_gram_keeps_append_rows_incremental_and_bitwise() {
        no_auto_snapshots();
        let base = random_interval_matrix(92, 13, 8, 1.0);
        let extra = random_interval_matrix(93, 4, 8, 1.0);
        let config = IsvdConfig::new(4);
        let path = temp_file("gram_roundtrip");

        // Session 1 runs everything and snapshots to disk.
        {
            let sharded = RowShardedIntervalMatrix::from_dense(&base, 5).unwrap();
            let mut first = Pipeline::from_shards(sharded, config).unwrap();
            first.run_all().unwrap();
            first.snapshot_to(&path).unwrap();
        }

        // Session 2 (a "restarted process") restores, appends, reruns.
        let sharded = RowShardedIntervalMatrix::from_dense(&base, 5).unwrap();
        let mut second = Pipeline::from_shards(sharded, config).unwrap();
        let report = second.restore_from(&path).unwrap();
        assert!(report.checksum_ok && report.gram_restored);
        assert_eq!(report.dropped, 0);
        second.append_rows(extra.clone()).unwrap();
        let incremental = second.run_all().unwrap();
        // The refreshed Gram was seeded by the append: the Gram-sharing
        // algorithms hit it instead of re-folding the whole matrix.
        let gram_event = incremental[2]
            .stages
            .iter()
            .find(|e| e.stage == StageId::IntervalGram)
            .unwrap();
        assert!(
            gram_event.cache_hit,
            "restored accumulator must re-arm appends"
        );

        // Cold reference over the concatenated matrix.
        let mut combined = RowShardedIntervalMatrix::from_dense(&base, 5).unwrap();
        combined.append_rows(extra).unwrap();
        let cold = crate::pipeline::run_all_sharded(&combined, &config).unwrap();
        assert_results_bitwise(&incremental, &cold, "warm restart + append");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_snapshot_for_a_different_matrix_drops_every_record() {
        no_auto_snapshots();
        let m = random_interval_matrix(94, 10, 7, 1.0);
        let other = random_interval_matrix(95, 10, 7, 1.0);
        let config = IsvdConfig::new(3);
        let mut p = Pipeline::new(&m, config).unwrap();
        p.run_all().unwrap();
        let bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);

        let mut q = Pipeline::new(&other, config).unwrap();
        let report = q.read_snapshot(&mut &bytes[..]);
        assert!(report.checksum_ok, "the file itself is intact");
        assert_eq!(report.restored, 0);
        assert!(!report.gram_restored);
        assert_eq!(report.dropped, total);
        let r = q.run(IsvdAlgorithm::Isvd4).unwrap();
        assert_eq!(r.timings.cache_hits, 0, "nothing stale may leak in");
    }

    #[test]
    fn version_bumped_snapshot_restores_nothing() {
        no_auto_snapshots();
        let m = random_interval_matrix(96, 9, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let mut bytes = snapshot_bytes(&p);
        let v1 = VERSION_LINE.as_bytes();
        bytes[v1.len() - 1] += 1; // "…v1" -> "…v2"

        let mut q = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        let report = q.read_snapshot(&mut &bytes[..]);
        assert_eq!(report.restored, 0);
        assert_eq!(report.dropped, 1);
        assert!(!report.gram_restored);
    }

    #[test]
    fn single_corrupted_payload_drops_only_that_record() {
        no_auto_snapshots();
        let m = random_interval_matrix(97, 11, 7, 1.0);
        let config = IsvdConfig::new(4);
        let mut p = Pipeline::new(&m, config).unwrap();
        p.run_all().unwrap();
        let mut bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);

        // Flip one bit inside the first entry's payload.
        let header_at = bytes
            .windows(7)
            .position(|w| w == b"\nentry ")
            .expect("snapshot has entries");
        let payload_at = header_at
            + 1
            + bytes[header_at + 1..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap()
            + 1;
        bytes[payload_at + 2] ^= 0x10;

        let mut q = Pipeline::new(&m, config).unwrap();
        let report = q.read_snapshot(&mut &bytes[..]);
        assert!(!report.checksum_ok, "whole-file hash must notice the flip");
        assert_eq!(report.dropped, 1, "exactly the corrupted record");
        assert_eq!(
            report.restored,
            total - 2,
            "all others salvage (minus gram)"
        );
        assert!(report.gram_restored);
    }

    #[test]
    fn truncated_snapshot_salvages_the_intact_prefix_without_panicking() {
        no_auto_snapshots();
        let m = random_interval_matrix(98, 11, 7, 1.0);
        let config = IsvdConfig::new(4);
        let mut p = Pipeline::new(&m, config).unwrap();
        let original = p.run_all().unwrap();
        let bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);

        // Every truncation point must recover gracefully; spot-check a
        // spread of cut offsets including mid-header and mid-payload.
        for cut in [0, 10, bytes.len() / 3, bytes.len() / 2, bytes.len() - 2] {
            let mut q = Pipeline::new(&m, config).unwrap();
            let report = q.read_snapshot(&mut &bytes[..cut]);
            assert!(!report.checksum_ok, "cut={cut}");
            assert!(report.restored + report.dropped <= total + 1, "cut={cut}");
            // Whatever survived must still produce bitwise-correct output.
            let rerun = q.run_all().unwrap();
            assert_results_bitwise(&rerun, &original, &format!("cut={cut}"));
        }
    }

    #[test]
    fn empty_and_garbage_inputs_restore_nothing() {
        no_auto_snapshots();
        let m = random_interval_matrix(99, 8, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        assert_eq!(p.read_snapshot(&mut &b""[..]), RestoreReport::default());
        let garbage = b"not a snapshot\nat all\n";
        let report = p.read_snapshot(&mut &garbage[..]);
        assert_eq!(report.restored, 0);
        assert!(!report.checksum_ok);
        assert!(p.restore_from(temp_file("never_written")).unwrap() == RestoreReport::default());
    }

    #[test]
    fn corrupted_trailing_checksum_still_salvages_every_record() {
        no_auto_snapshots();
        let m = random_interval_matrix(100, 10, 7, 1.0);
        let config = IsvdConfig::new(3);
        let mut p = Pipeline::new(&m, config).unwrap();
        let original = p.run_all().unwrap();
        let mut bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);
        let n = bytes.len();
        bytes[n - 3] = if bytes[n - 3] == b'0' { b'1' } else { b'0' };

        let mut q = Pipeline::new(&m, config).unwrap();
        let report = q.read_snapshot(&mut &bytes[..]);
        assert!(!report.checksum_ok);
        assert_eq!(report.restored, total - 1);
        assert!(report.gram_restored);
        assert_eq!(report.dropped, 0);
        let rerun = q.run_all().unwrap();
        for r in &rerun {
            assert_eq!(r.timings.cache_misses, 0);
        }
        assert_results_bitwise(&rerun, &original, "salvaged restore");
    }

    #[test]
    fn into_cache_disarms_the_save_on_drop_and_keeps_entries() {
        no_auto_snapshots();
        let m = random_interval_matrix(101, 9, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let cache = p.into_cache();
        assert!(!cache.entries().is_empty());
    }
}
