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
//! ## File format (version 3)
//!
//! One [`ivmf_data::binfmt`] record container — the shard files' frame
//! (`[kind: u8] [len: u64 LE] [payload] [fnv1a64(payload): u64 LE]`) and
//! kind table — behind a magic of its own:
//!
//! ```text
//! [magic: b"ivmfsn3\n"]
//! [REC_SNAPSHOT_MATRIX] <content-id: u64 LE>
//! [REC_SNAPSHOT_ENTRY]  <content-id:016x> <stage> <fingerprint:016x>\n <stage payload>
//! …
//! [REC_SNAPSHOT_GRAM]   <content-id:016x>\n <StreamingIntervalGram::write_state>
//! [REC_END]             <fnv1a64 of every byte before this record: u64 LE>
//! ```
//!
//! Stage payloads use the [`ivmf_linalg::state_text`] codec: a text line
//! of dimensions, then raw little-endian binary runs, for each matrix or
//! vector of the stage's output in field order. Every record carries its
//! own checksum, and the `REC_END` record hashes everything before it.
//! Every state record's header line names the matrix it belongs to, so a
//! record spliced in from another matrix's snapshot never restores.
//! Entries are sorted by stage name and fingerprint, so snapshotting the
//! same session state twice produces identical bytes.
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
//! | unknown magic | nothing restored |
//! | `matrix` id ≠ session's content id | every record dropped (stale snapshot) |
//! | record's content id ≠ session's (spliced record) | that record dropped |
//! | whole-file hash mismatch / missing `end` | per-entry salvage: each record stands on its own hash |
//! | payload hash mismatch (bit rot) | that record dropped |
//! | truncated payload (torn write, kill), or a length past the end or over `MAX_RECORD_LEN` | that record and the unreadable tail dropped |
//! | undecodable payload | that record dropped |
//! | accumulator row count ≠ session rows | gram record dropped |
//!
//! Dropped state is simply recomputed on next use; restored entries are
//! consumed as ordinary cache hits. The writer skips an entry whose
//! payload would exceed `MAX_RECORD_LEN`, the way it skips a foreign
//! one, so it never writes a record its own reader rejects.
//!
//! ## Automatic warm restarts
//!
//! With a snapshot directory set ([`ivmf_env::Settings::snapshot_dir`],
//! `IVMF_SNAPSHOT_DIR` by default), every session restores
//! `<dir>/ivmf_snapshot_<content-id:016x>.snap` on construction and
//! writes it back on drop — to the directory in force when it was
//! built, so restore and save always name the same file (atomically: write-to-temp, fsync, rename —
//! see `ivmf_data::atomic`). Unset, snapshots happen only through the
//! explicit [`Pipeline::snapshot_to`] / [`Pipeline::restore_from`]
//! calls. Bit-exactness holds either way: entry payloads round-trip
//! every `f64` through its raw bit pattern, so a restored stage output
//! is indistinguishable from the computed one.

use std::any::Any;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use ivmf_align::Alignment;
use ivmf_data::binfmt::{self, Frame, REC_END, REC_SNAPSHOT_ENTRY, REC_SNAPSHOT_GRAM};
use ivmf_data::fnv::fnv1a64;
use ivmf_interval::{IntervalMatrix, IntervalShard, StreamingIntervalGram};
use ivmf_linalg::state_text::{
    bad_state, checked_len, parse_usize_line, read_f64_run, read_line, read_usize_run_into,
    write_f64_run, write_usize_run,
};
use ivmf_linalg::svd::Svd;
use ivmf_linalg::Matrix;

use crate::isvd::BoundEigen;
use crate::pipeline::{AlignedSolveOut, BoundSvds, GramState, Pipeline, StageId, StageKey};

/// Leading bytes of every snapshot this version of the crate writes.
/// Anything else — a `v2` text-framed snapshot, a future format bump,
/// corruption — restores nothing (a clean cold start).
const MAGIC: [u8; 8] = *b"ivmfsn3\n";

/// Outcome of a snapshot restore: how much state survived validation.
///
/// A report is informational — restore never fails the session; dropped
/// records are recomputed on next use.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Stage-cache entries that validated and were seeded into the cache.
    pub restored: usize,
    /// Records rejected by any validation step (checksum, magic, stale
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
// Payload codec: `state_text` header lines and binary runs.
// ---------------------------------------------------------------------------

/// A stage output type as a record payload, bit-exact.
trait Payload: Sized + 'static {
    fn write(&self, w: &mut dyn Write) -> io::Result<()>;
    fn read(r: &mut dyn BufRead) -> io::Result<Self>;
}

/// Reads a `state_text` line of exactly `N` integers.
fn read_dims<const N: usize>(r: &mut dyn BufRead) -> io::Result<[usize; N]> {
    let dims = parse_usize_line(&read_line(r)?, N)?;
    Ok(dims.try_into().expect("parse_usize_line returns N values"))
}

impl Payload for Matrix {
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{} {}", self.rows(), self.cols())?;
        write_f64_run(w, self.as_slice())
    }
    fn read(r: &mut dyn BufRead) -> io::Result<Self> {
        let [rows, cols] = read_dims(r)?;
        let data = read_f64_run(r, checked_len(rows, cols)?)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| bad_state(e.to_string()))
    }
}

impl Payload for Vec<f64> {
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{}", self.len())?;
        write_f64_run(w, self)
    }
    fn read(r: &mut dyn BufRead) -> io::Result<Self> {
        let [len] = read_dims(r)?;
        read_f64_run(r, len)
    }
}

impl Payload for IntervalMatrix {
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        self.lo().write(w)?;
        self.hi().write(w)
    }
    fn read(r: &mut dyn BufRead) -> io::Result<Self> {
        let lo = Matrix::read(r)?;
        let hi = Matrix::read(r)?;
        IntervalMatrix::from_bounds(lo, hi).map_err(|e| bad_state(e.to_string()))
    }
}

impl Payload for Alignment {
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        let flips: Vec<usize> = self.flip.iter().map(|&f| usize::from(f)).collect();
        writeln!(w, "{}", self.mapping.len())?;
        write_usize_run(w, &self.mapping)?;
        write_usize_run(w, &flips)?;
        write_f64_run(w, &self.matched_similarity)
    }
    fn read(r: &mut dyn BufRead) -> io::Result<Self> {
        let [len] = read_dims(r)?;
        let (mut mapping, mut flips) = (Vec::new(), Vec::new());
        read_usize_run_into(r, len, &mut mapping)?;
        read_usize_run_into(r, len, &mut flips)?;
        let matched_similarity = read_f64_run(r, len)?;
        if flips.iter().any(|&f| f > 1) {
            return Err(bad_state("alignment flip flags must be 0 or 1"));
        }
        Ok(Alignment {
            mapping,
            flip: flips.into_iter().map(|f| f == 1).collect(),
            matched_similarity,
        })
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        self.0.write(w)?;
        self.1.write(w)
    }
    fn read(r: &mut dyn BufRead) -> io::Result<Self> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

/// [`Payload`] for a struct: its fields, in the order listed.
macro_rules! struct_payload {
    ($t:ty; $($field:ident),+) => {
        impl Payload for $t {
            fn write(&self, w: &mut dyn Write) -> io::Result<()> {
                $(self.$field.write(w)?;)+
                Ok(())
            }
            fn read(r: &mut dyn BufRead) -> io::Result<Self> {
                // Struct expression fields evaluate in the order written.
                Ok(Self { $($field: Payload::read(r)?),+ })
            }
        }
    };
}

struct_payload!(Svd; u, singular_values, v);
struct_payload!(BoundSvds; lo, hi);
struct_payload!(BoundEigen; v, sigma);
struct_payload!(AlignedSolveOut; v_lo, sigma_lo, u, sigma_inv);

/// How one stage's cached value is written to and read from its entry
/// record.
struct Codec {
    /// Writes the value; `Ok(false)` when it is not of the stage's
    /// payload type (a foreign entry on a shared cache — skipped).
    write: fn(&dyn Any, &mut dyn Write) -> io::Result<bool>,
    read: fn(&mut dyn BufRead) -> io::Result<Rc<dyn Any>>,
}

impl Codec {
    fn of<T: Payload>() -> Codec {
        Codec {
            write: |value, w| match value.downcast_ref::<T>() {
                Some(v) => v.write(w).map(|()| true),
                None => Ok(false),
            },
            read: |r| Ok(Rc::new(T::read(r)?)),
        }
    }
}

/// The one stage → payload-type table.
fn codec(stage: StageId) -> Codec {
    use StageId::*;
    match stage {
        Midpoint => Codec::of::<Matrix>(),
        MidpointSvd => Codec::of::<Svd>(),
        BoundSvd => Codec::of::<BoundSvds>(),
        SvdAlign | GramAlign => Codec::of::<Alignment>(),
        IntervalGram => Codec::of::<IntervalMatrix>(),
        BoundEigenLo | BoundEigenHi => Codec::of::<BoundEigen>(),
        LeftRecover | RightTighten => Codec::of::<(Matrix, Matrix)>(),
        AlignedSolve => Codec::of::<AlignedSolveOut>(),
    }
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

/// Reads a state record's header line, `<content-id:016x>` followed by
/// the record's own fields, and returns those fields — or an error when
/// the id does not name `matrix` (a record spliced in from another
/// matrix's snapshot).
fn header_fields(r: &mut dyn BufRead, matrix: u64) -> io::Result<String> {
    let line = read_line(r)?;
    let (id, fields) = line.split_once(' ').unwrap_or((&line, ""));
    if u64::from_str_radix(id, 16).ok() != Some(matrix) {
        return Err(bad_state("record belongs to another matrix"));
    }
    Ok(fields.to_string())
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
        let entries = self.cache.entries();
        let mut keys: Vec<&StageKey> = entries.keys().filter(|k| k.matrix == self.matrix).collect();
        // Deterministic record order: identical session state produces
        // identical snapshot bytes.
        keys.sort_by_key(|k| (k.stage.name(), k.fingerprint));
        let mut file = MAGIC.to_vec();
        binfmt::write_record(
            &mut file,
            binfmt::REC_SNAPSHOT_MATRIX,
            &self.matrix.to_le_bytes(),
        )?;
        // Writing into a `Vec` fails only on a payload over
        // `MAX_RECORD_LEN`, which `write_record` refuses before writing a
        // byte: such a record is skipped, like a foreign entry.
        let mut payload = Vec::new();
        for key in keys {
            payload.clear();
            let (stage, fingerprint) = (key.stage.name(), key.fingerprint);
            writeln!(payload, "{:016x} {stage} {fingerprint:016x}", self.matrix)?;
            if (codec(key.stage).write)(&*entries[key], &mut payload)? {
                binfmt::write_record(&mut file, REC_SNAPSHOT_ENTRY, &payload).ok();
            }
        }
        if let Some(state) = &self.gram_state {
            if state.matrix == self.matrix {
                payload.clear();
                writeln!(payload, "{:016x}", self.matrix)?;
                state.acc.write_state(&mut payload)?;
                binfmt::write_record(&mut file, REC_SNAPSHOT_GRAM, &payload).ok();
            }
        }
        let hash = fnv1a64(&file);
        binfmt::write_record(&mut file, REC_END, &hash.to_le_bytes())?;
        w.write_all(&file)?;
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
        let Some(mut rest) = buf.strip_prefix(&MAGIC[..]) else {
            report.dropped += 1;
            return report;
        };
        let file_matrix = match binfmt::read_frame(&mut rest) {
            Ok(Some(Frame {
                kind: binfmt::REC_SNAPSHOT_MATRIX,
                payload,
                intact: true,
            })) => payload.try_into().ok().map(u64::from_le_bytes),
            _ => None,
        };
        let Some(file_matrix) = file_matrix else {
            report.dropped += 1;
            return report;
        };
        loop {
            let at = buf.len() - rest.len();
            let frame = match binfmt::read_frame(&mut rest) {
                Ok(Some(frame)) => frame,
                // End of file without an end record: the records read so
                // far stand on their own checksums.
                Ok(None) => break,
                // A torn frame, or a length past the end or the limit:
                // where the next record starts is unknowable.
                Err(_) => {
                    report.dropped += 1;
                    break;
                }
            };
            if frame.kind == REC_END && rest.is_empty() {
                report.checksum_ok =
                    frame.intact && frame.payload[..] == fnv1a64(&buf[..at]).to_le_bytes();
                break;
            }
            if !frame.intact || file_matrix != self.matrix {
                report.dropped += 1;
                continue;
            }
            match frame.kind {
                REC_SNAPSHOT_ENTRY if self.restore_entry(&frame.payload).is_ok() => {
                    report.restored += 1
                }
                REC_SNAPSHOT_GRAM if self.restore_gram(&frame.payload).is_ok() => {
                    report.gram_restored = true
                }
                _ => report.dropped += 1,
            }
        }
        report
    }

    /// Seeds one entry record into the cache under the session's matrix
    /// id, decoding the stage's payload type; an undecodable payload is
    /// an error and the caller drops it.
    fn restore_entry(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut r = payload;
        let fields = header_fields(&mut r, self.matrix)?;
        let (stage, fingerprint) = fields
            .split_once(' ')
            .and_then(|(name, fp)| {
                Some((stage_from_name(name)?, u64::from_str_radix(fp, 16).ok()?))
            })
            .ok_or_else(|| bad_state(format!("malformed entry header {fields:?}")))?;
        let value = (codec(stage).read)(&mut r)?;
        if !r.is_empty() {
            return Err(bad_state("trailing bytes after entry payload"));
        }
        let key = StageKey {
            matrix: self.matrix,
            fingerprint,
            stage,
        };
        self.cache.seed(key, value);
        Ok(())
    }

    /// Restores the retained Gram accumulator from its record; an
    /// undecodable payload, or one whose row count is not the session's,
    /// is an error and the caller drops it.
    fn restore_gram(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut r = payload;
        if !header_fields(&mut r, self.matrix)?.is_empty() {
            return Err(bad_state("malformed gram header"));
        }
        let acc = StreamingIntervalGram::read_state(&mut r)?;
        if !r.is_empty() || acc.rows_seen() != self.shape().0 {
            return Err(bad_state("gram accumulator does not fit the session"));
        }
        self.gram_state = Some(GramState {
            matrix: self.matrix,
            acc,
        });
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

    /// Load-on-construct half of the automatic snapshots: called by the
    /// constructors; a no-op without a snapshot directory, and silent on
    /// failure (a broken snapshot must never break a session — it just
    /// starts cold).
    pub(crate) fn auto_restore(&mut self) {
        if let Some(dir) = self.snapshot_dir.clone() {
            let _ = self.restore_from(snapshot_path(&dir, self.matrix));
        }
    }

    /// Save-on-drop half of the automatic snapshots: a no-op without a
    /// snapshot directory or when the session holds no state worth saving, and
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
        if let Some(dir) = &self.snapshot_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = self.snapshot_to(snapshot_path(dir, self.matrix));
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

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ivmf_snap_{}_{tag}.snap", std::process::id()))
    }

    fn snapshot_bytes(p: &Pipeline<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        p.write_snapshot(&mut buf).unwrap();
        buf
    }

    /// The records after the magic: `(kind, payload offset, payload)`.
    fn records(bytes: &[u8]) -> Vec<(u8, usize, Vec<u8>)> {
        let mut rest = bytes.strip_prefix(&MAGIC[..]).unwrap();
        let mut out = Vec::new();
        loop {
            let payload_at = bytes.len() - rest.len() + 9;
            let Some(frame) = binfmt::read_frame(&mut rest).unwrap() else {
                return out;
            };
            assert!(frame.intact);
            out.push((frame.kind, payload_at, frame.payload));
        }
    }

    /// Number of entry/gram records a snapshot holds.
    fn record_count(bytes: &[u8]) -> usize {
        let kinds = records(bytes).into_iter().map(|r| r.0);
        kinds
            .filter(|&k| k == REC_SNAPSHOT_ENTRY || k == REC_SNAPSHOT_GRAM)
            .count()
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let m = random_interval_matrix(90, 11, 7, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
        p.run_all().unwrap();
        let a = snapshot_bytes(&p);
        let b = snapshot_bytes(&p);
        assert_eq!(a, b, "same session state must snapshot identically");
        assert!(a.starts_with(&MAGIC));
        let (kind, _, declared) = records(&a).pop().unwrap();
        assert_eq!(kind, REC_END);
        assert_eq!(
            declared,
            fnv1a64(&a[..a.len() - binfmt::record_len(8)]).to_le_bytes()
        );
    }

    #[test]
    fn round_trip_restores_every_stage_and_serves_pure_hits_bitwise() {
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
        let m = random_interval_matrix(96, 9, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let mut bytes = snapshot_bytes(&p);
        bytes[MAGIC.len() - 2] += 1; // "…3\n" -> "…4\n"

        let mut q = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        let report = q.read_snapshot(&mut &bytes[..]);
        assert_eq!(report.restored, 0);
        assert_eq!(report.dropped, 1);
        assert!(!report.gram_restored);
    }

    #[test]
    fn single_corrupted_payload_drops_only_that_record() {
        let m = random_interval_matrix(97, 11, 7, 1.0);
        let config = IsvdConfig::new(4);
        let mut p = Pipeline::new(&m, config).unwrap();
        p.run_all().unwrap();
        let mut bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);

        // Flip one bit inside the first entry's payload.
        let (kind, payload_at, _) = records(&bytes)[1];
        assert_eq!(kind, REC_SNAPSHOT_ENTRY);
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

        // Cut exactly before the end record: every record is whole.
        let mut q = Pipeline::new(&m, config).unwrap();
        let report = q.read_snapshot(&mut &bytes[..bytes.len() - binfmt::record_len(8)]);
        assert!(!report.checksum_ok, "missing end record");
        assert_eq!((report.restored, report.dropped), (total - 1, 0));
        assert!(report.gram_restored);
    }

    /// A snapshot file of the given records and a correct end record.
    fn assemble(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut file = MAGIC.to_vec();
        for (kind, payload) in records {
            binfmt::write_record(&mut file, *kind, payload).unwrap();
        }
        let hash = fnv1a64(&file);
        binfmt::write_record(&mut file, REC_END, &hash.to_le_bytes()).unwrap();
        file
    }

    #[test]
    fn records_that_do_not_fit_the_session_are_dropped_alone() {
        let m = random_interval_matrix(102, 11, 7, 1.0);
        let config = IsvdConfig::new(4);
        let mut p = Pipeline::new(&m, config).unwrap();
        let original = p.run_all().unwrap();
        let bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);
        let mut own: Vec<(u8, Vec<u8>)> = records(&bytes).into_iter().map(|r| (r.0, r.2)).collect();
        own.pop(); // the end record: `assemble` writes a correct one
        let (entry, gram) = (1, own.len() - 1);
        assert_eq!(
            (own[entry].0, own[gram].0),
            (REC_SNAPSHOT_ENTRY, REC_SNAPSHOT_GRAM)
        );

        // An undecodable entry payload behind an intact checksum.
        let mut undecodable = own.clone();
        let header_len = own[entry].1.iter().position(|&b| b == b'\n').unwrap() + 1;
        undecodable[entry].1.truncate(header_len);
        undecodable[entry].1.extend_from_slice(b"junk");
        // A Gram accumulator under this matrix's id over fewer rows.
        let mut short_gram = own.clone();
        let mut acc = StreamingIntervalGram::with_flavour(7, false);
        acc.push(&random_interval_matrix(104, 5, 7, 1.0)).unwrap();
        short_gram[gram].1 = format!("{:016x}\n", p.content_id()).into_bytes();
        acc.write_state(&mut short_gram[gram].1).unwrap();

        for (name, recs, restored, gram_restored) in [
            ("undecodable", undecodable, total - 2, true),
            ("short gram", short_gram, total - 1, false),
        ] {
            let mut fresh = Pipeline::new(&m, config).unwrap();
            let report = fresh.read_snapshot(&mut &assemble(&recs)[..]);
            assert!(report.checksum_ok, "{name}");
            assert_eq!(report.dropped, 1, "{name}: exactly the misfit record");
            assert_eq!(report.restored, restored, "{name}");
            assert_eq!(report.gram_restored, gram_restored, "{name}");
            assert_results_bitwise(&fresh.run_all().unwrap(), &original, name);
        }
    }

    #[test]
    fn empty_and_garbage_inputs_restore_nothing() {
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
        let m = random_interval_matrix(100, 10, 7, 1.0);
        let config = IsvdConfig::new(3);
        let mut p = Pipeline::new(&m, config).unwrap();
        let original = p.run_all().unwrap();
        let mut bytes = snapshot_bytes(&p);
        let total = record_count(&bytes);
        // An intact end record declaring the wrong whole-file hash.
        let (_, _, declared) = records(&bytes).pop().unwrap();
        let wrong = u64::from_le_bytes(declared.try_into().unwrap()) ^ 1;
        bytes.truncate(bytes.len() - binfmt::record_len(8));
        binfmt::write_record(&mut bytes, REC_END, &wrong.to_le_bytes()).unwrap();

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
        let m = random_interval_matrix(101, 9, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let cache = p.into_cache();
        assert!(!cache.entries().is_empty());
    }
}
