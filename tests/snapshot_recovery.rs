//! Fault-injection suite for crash-safe warm restarts
//! (`ivmf_core::snapshot`): a pipeline session killed and restarted
//! mid-stream must resume from its snapshot with cache *hits* and
//! bitwise-identical outputs, and **every** corruption scenario —
//! truncation, bit rot, mangled checksum, version bump, stale matrix,
//! torn rename — must degrade to recomputation, never to a panic and
//! never to silently wrong results.
//!
//! Two tests drive the automatic save/load of a snapshot directory, set
//! in a [`Settings::scope`] of their own thread.

#[path = "support/temp_path.rs"]
mod temp_path;

use std::io::Write;

use ivmf_core::pipeline::{Pipeline, StageId};
use ivmf_core::snapshot::snapshot_path;
use ivmf_core::{IsvdAlgorithm, IsvdConfig, IsvdResult, RestoreReport};
use ivmf_data::binfmt;
use ivmf_data::fault::{FaultSchedule, FaultyWriter};
use ivmf_env::Settings;
use ivmf_interval::{IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::random::uniform_matrix;
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use temp_path::TempPath;

/// Mirrors `ivmf_core::test_support::random_interval_matrix` (which is
/// `cfg(test)`-gated and invisible to integration tests); keep in sync.
fn random_interval_matrix(seed: u64, n: usize, m: usize, span: f64) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lo = uniform_matrix(&mut rng, n, m, 0.5, 4.0);
    let spans = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..span));
    let hi = lo.add(&spans).unwrap();
    IntervalMatrix::from_bounds(lo, hi).unwrap()
}

/// A fresh directory under the system temp dir, removed with its
/// contents when the guard drops.
fn temp_dir(tag: &str) -> TempPath {
    let dir = TempPath::new(&format!("snaprec_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The default settings with automatic snapshots in `dir`.
fn snapshots_in(dir: &std::path::Path) -> Settings {
    Settings {
        snapshot_dir: Some(dir.to_path_buf()),
        ..Settings::default()
    }
}

fn assert_results_bitwise(a: &[IsvdResult; 5], b: &[IsvdResult; 5], context: &str) {
    for ((ra, rb), alg) in a.iter().zip(b.iter()).zip(IsvdAlgorithm::all()) {
        assert_eq!(ra.factors.u, rb.factors.u, "{context}: {alg} U differs");
        assert_eq!(ra.factors.v, rb.factors.v, "{context}: {alg} V differs");
        assert_eq!(
            ra.factors.sigma, rb.factors.sigma,
            "{context}: {alg} core differs"
        );
    }
}

fn snapshot_bytes(p: &Pipeline<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    p.write_snapshot(&mut buf).unwrap();
    buf
}

/// Offset of the first entry record's payload, found by walking the
/// records from the end of the 8-byte magic; a payload starts 9 bytes
/// into its record (kind byte, length field).
fn first_entry_payload(bytes: &[u8]) -> usize {
    let mut rest = &bytes[8..];
    loop {
        let at = bytes.len() - rest.len();
        let frame = binfmt::read_frame(&mut rest)
            .unwrap()
            .expect("snapshot has entries");
        if frame.kind == binfmt::REC_SNAPSHOT_ENTRY {
            return at + 9;
        }
    }
}

/// The flagship scenario: a streaming session is killed between row
/// batches. The restarted process restores the snapshot, appends the
/// rows the dead process never saw, and must produce bitwise-identical
/// results to a session that never died — with the Gram re-armed as an
/// incremental refresh (a cache hit, not a cold re-fold).
#[test]
fn killed_mid_stream_session_resumes_warm_and_bitwise_identical() {
    let base = random_interval_matrix(800, 18, 9, 1.0);
    let batch1 = random_interval_matrix(801, 5, 9, 1.0);
    let batch2 = random_interval_matrix(802, 4, 9, 1.0);
    let config = IsvdConfig::new(4);
    let dir = temp_dir("kill_restart");

    // The uninterrupted reference: one process sees every batch.
    let mut reference = {
        let sharded = RowShardedIntervalMatrix::from_dense(&base, 6).unwrap();
        let mut p = Pipeline::from_shards(sharded, config).unwrap();
        p.run_all().unwrap();
        p.append_rows(batch1.clone()).unwrap();
        p.run_all().unwrap();
        p.append_rows(batch2.clone()).unwrap();
        p
    };
    let reference_results = reference.run_all().unwrap();

    // Process 1: runs, absorbs batch 1, checkpoints... and is "killed"
    // (dropped) before batch 2 arrives.
    let path = {
        let sharded = RowShardedIntervalMatrix::from_dense(&base, 6).unwrap();
        let mut p = Pipeline::from_shards(sharded, config).unwrap();
        p.run_all().unwrap();
        p.append_rows(batch1.clone()).unwrap();
        p.run_all().unwrap();
        let path = snapshot_path(&dir, p.content_id());
        p.snapshot_to(&path).unwrap();
        path
    };

    // Process 2: fresh address space, restores, resumes the stream.
    let mut extended = RowShardedIntervalMatrix::from_dense(&base, 6).unwrap();
    extended.append_rows(batch1).unwrap();
    let mut p = Pipeline::from_shards(extended, config).unwrap();
    let report = p.restore_from(&path).unwrap();
    assert!(report.checksum_ok, "clean snapshot must verify");
    assert!(report.gram_restored, "accumulator must survive the restart");
    assert_eq!(report.dropped, 0);
    assert!(report.restored >= 5, "warm stages must survive the restart");

    // Every restored stage is served as a hit before the next append...
    let warm = p.run_all().unwrap();
    for r in &warm {
        assert_eq!(r.timings.cache_misses, 0, "restored run must only hit");
    }
    // ...and the resumed stream stays incremental: the post-append Gram
    // is seeded by the restored accumulator, not re-folded.
    p.append_rows(batch2).unwrap();
    let resumed = p.run_all().unwrap();
    let gram_event = resumed[2]
        .stages
        .iter()
        .find(|e| e.stage == StageId::IntervalGram)
        .unwrap();
    assert!(
        gram_event.cache_hit,
        "append after restore must refresh the restored accumulator"
    );
    assert_results_bitwise(&resumed, &reference_results, "kill/restart");
}

/// A checkpoint torn by the process dying mid-write (simulating a
/// non-atomic writer): the intact prefix restores, the tail recomputes,
/// and results stay bitwise correct at every truncation point.
#[test]
fn truncated_snapshot_recovers_to_bitwise_correct_results() {
    let m = random_interval_matrix(810, 14, 8, 1.0);
    let config = IsvdConfig::new(4);
    let mut warm = Pipeline::new(&m, config).unwrap();
    let reference = warm.run_all().unwrap();
    let bytes = snapshot_bytes(&warm);
    let dir = temp_dir("truncate");
    let path = dir.join("torn.snap");

    for fraction in [0.0, 0.1, 0.35, 0.6, 0.9, 0.999] {
        let cut = ((bytes.len() as f64) * fraction) as u64;
        // The writer claims success but drops every byte past `cut` —
        // exactly what a kill between write() and fsync can leave behind.
        let mut w = FaultyWriter::new(
            std::fs::File::create(&path).unwrap(),
            FaultSchedule::truncate_at(cut),
        );
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();

        let mut p = Pipeline::new(&m, config).unwrap();
        let report = p.restore_from(&path).unwrap();
        assert!(
            !report.checksum_ok,
            "cut at {fraction} must fail the checksum"
        );
        let rerun = p.run_all().unwrap();
        assert_results_bitwise(&rerun, &reference, &format!("cut at {fraction}"));
    }
}

/// A single flipped bit anywhere in a stored payload invalidates exactly
/// that record: the rest restore as hits and the output stays bitwise
/// identical.
#[test]
fn single_bit_corruption_drops_one_record_and_stays_bitwise_correct() {
    let m = random_interval_matrix(811, 13, 7, 1.0);
    let config = IsvdConfig::new(4);
    let mut warm = Pipeline::new(&m, config).unwrap();
    let reference = warm.run_all().unwrap();
    let bytes = snapshot_bytes(&warm);
    let dir = temp_dir("bitflip");
    let path = dir.join("flipped.snap");

    // Land the flip inside the first entry's payload bytes.
    let payload_at = first_entry_payload(&bytes) as u64;
    for bit in [0u8, 3, 7] {
        let mut w = FaultyWriter::new(
            std::fs::File::create(&path).unwrap(),
            FaultSchedule::flip_bit(payload_at + 5, bit),
        );
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();

        let mut p = Pipeline::new(&m, config).unwrap();
        let report = p.restore_from(&path).unwrap();
        assert!(!report.checksum_ok, "bit {bit}: file hash must notice");
        assert_eq!(report.dropped, 1, "bit {bit}: exactly the hit record");
        assert!(report.restored > 0, "bit {bit}: the rest must salvage");
        let rerun = p.run_all().unwrap();
        assert_results_bitwise(&rerun, &reference, &format!("bit {bit}"));
    }
}

/// A mangled end record (its last bytes, the frame's own checksum)
/// switches the loader to per-record salvage: everything with an intact
/// payload checksum still restores.
#[test]
fn corrupted_checksum_still_salvages_every_intact_record() {
    let m = random_interval_matrix(812, 12, 7, 1.0);
    let config = IsvdConfig::new(3);
    let mut warm = Pipeline::new(&m, config).unwrap();
    let reference = warm.run_all().unwrap();
    let mut bytes = snapshot_bytes(&warm);
    let n = bytes.len();
    bytes[n - 2] = if bytes[n - 2] == b'f' { b'0' } else { b'f' };
    let dir = temp_dir("checksum");
    let path = dir.join("badsum.snap");
    std::fs::write(&path, &bytes).unwrap();

    let mut p = Pipeline::new(&m, config).unwrap();
    let report = p.restore_from(&path).unwrap();
    assert!(!report.checksum_ok);
    assert_eq!(report.dropped, 0, "payload hashes all verify");
    assert!(report.restored > 0 && report.gram_restored);
    let rerun = p.run_all().unwrap();
    for r in &rerun {
        assert_eq!(r.timings.cache_misses, 0, "salvaged entries must hit");
    }
    assert_results_bitwise(&rerun, &reference, "mangled checksum");
}

/// A snapshot from a future format version restores nothing — and a
/// snapshot of a *different matrix* (stale file under a recycled name)
/// restores nothing either. Both recompute cold, correctly.
#[test]
fn version_bump_and_stale_matrix_are_rejected_wholesale() {
    let m = random_interval_matrix(813, 11, 7, 1.0);
    let other = random_interval_matrix(814, 11, 7, 1.0);
    let config = IsvdConfig::new(3);
    let mut warm = Pipeline::new(&m, config).unwrap();
    let reference = warm.run_all().unwrap();
    let bytes = snapshot_bytes(&warm);
    let dir = temp_dir("reject");

    // Future version: the magic reads "ivmfsn4\n".
    let mut bumped = bytes.clone();
    let v_at = bumped.iter().position(|&b| b == b'\n').unwrap() - 1;
    bumped[v_at] = b'4';
    let path = dir.join("future.snap");
    std::fs::write(&path, &bumped).unwrap();
    let mut p = Pipeline::new(&m, config).unwrap();
    let report = p.restore_from(&path).unwrap();
    assert_eq!(report.restored, 0, "future formats must not be guessed at");
    assert!(!report.gram_restored);

    // Past version: a v2 file, text record headers behind a version line.
    let v2 = format!(
        "ivmf snapshot v2\nmatrix {:016x}\nend 0123456789abcdef\n",
        warm.content_id()
    );
    let path = dir.join("v2.snap");
    std::fs::write(&path, v2).unwrap();
    let mut p = Pipeline::new(&m, config).unwrap();
    let report = p.restore_from(&path).unwrap();
    assert_eq!(report.restored, 0, "a v2 file restores nothing");
    assert_eq!(report.dropped, 1);
    assert!(!report.gram_restored && !report.checksum_ok);

    // Stale matrix: intact file, wrong data set.
    let path = dir.join("stale.snap");
    std::fs::write(&path, &bytes).unwrap();
    let mut q = Pipeline::new(&other, config).unwrap();
    let report = q.restore_from(&path).unwrap();
    assert!(report.checksum_ok, "the file itself is intact");
    assert_eq!(report.restored, 0, "stale entries must not leak in");
    assert!(!report.gram_restored);
    let r = q.run(IsvdAlgorithm::Isvd4).unwrap();
    assert_eq!(r.timings.cache_hits, 0);

    // And the unharmed original still restores fully after both rejections.
    let mut p = Pipeline::new(&m, config).unwrap();
    let report = p.read_snapshot(&mut &bytes[..]);
    assert!(report.checksum_ok && report.dropped == 0);
    let rerun = p.run_all().unwrap();
    assert_results_bitwise(&rerun, &reference, "clean restore after rejections");
}

/// A process killed between writing the temp file and the atomic rename
/// leaves a stray `.tmp` sibling next to the last *committed* snapshot.
/// The restart must load the committed file and never the stray.
#[test]
fn kill_between_write_and_rename_leaves_the_committed_snapshot_in_charge() {
    let m = random_interval_matrix(815, 12, 7, 1.0);
    let config = IsvdConfig::new(3);
    let dir = temp_dir("torn_rename");

    // Session 1 commits a good checkpoint.
    let mut warm = Pipeline::new(&m, config).unwrap();
    let reference = warm.run_all().unwrap();
    let path = snapshot_path(&dir, warm.content_id());
    warm.snapshot_to(&path).unwrap();

    // A later checkpoint attempt dies mid-write: a half-written temp
    // sibling survives, the rename never happened.
    let committed = std::fs::read(&path).unwrap();
    let stray = dir.join(format!(
        ".{}.tmp.99999.0",
        path.file_name().unwrap().to_string_lossy()
    ));
    std::fs::write(&stray, &committed[..committed.len() / 2]).unwrap();

    // The restart sees exactly the committed bytes.
    let mut p = Pipeline::new(&m, config).unwrap();
    let report = p.restore_from(&path).unwrap();
    assert!(
        report.checksum_ok,
        "committed snapshot untouched by the tear"
    );
    assert_eq!(report.dropped, 0);
    let rerun = p.run_all().unwrap();
    for r in &rerun {
        assert_eq!(r.timings.cache_misses, 0);
    }
    assert_results_bitwise(&rerun, &reference, "restore beside a stray temp");
    assert!(stray.exists(), "the stray is inert, not silently adopted");
}

/// The snapshot-directory setting end-to-end: save-on-drop in one
/// "process", load-on-construct in the next, pure hits, identical bits.
#[test]
fn snapshot_dir_knob_gives_automatic_warm_restarts() {
    let dir = temp_dir("auto");
    snapshots_in(&dir).scope(|| automatic_warm_restart(&dir));
}

fn automatic_warm_restart(dir: &std::path::Path) {
    let m = random_interval_matrix(816, 13, 8, 1.0);
    let config = IsvdConfig::new(4);

    // Session 1: plain run, no snapshot calls anywhere — the save
    // happens on drop.
    let reference = {
        let mut p = Pipeline::new(&m, config).unwrap();
        p.run_all().unwrap()
    };
    let expected = snapshot_path(dir, {
        let p = Pipeline::new(&m, config).unwrap();
        p.content_id()
    });
    assert!(expected.exists(), "drop must have checkpointed the session");

    // Session 2: constructing the pipeline is all it takes.
    let mut p = Pipeline::new(&m, config).unwrap();
    let warm = p.run_all().unwrap();
    for r in &warm {
        assert_eq!(r.timings.cache_misses, 0, "auto-restore must serve hits");
    }
    assert_results_bitwise(&warm, &reference, "auto warm restart");
}

/// A session's directory is the one in force when it was built: dropped
/// after its scope ended, it still saves there.
#[test]
fn a_session_saves_to_the_directory_it_was_built_in() {
    let dir = temp_dir("built_in");
    let m = random_interval_matrix(818, 9, 6, 1.0);
    let mut p = snapshots_in(&dir).scope(|| Pipeline::new(&m, IsvdConfig::new(3)).unwrap());
    p.run(IsvdAlgorithm::Isvd2).unwrap();
    let expected = snapshot_path(&dir, p.content_id());
    drop(p);
    assert!(
        expected.exists(),
        "the drop outside the scope saved elsewhere"
    );
}

/// Every temporary path a test makes is removed when the test ends, also
/// when it fails.
#[test]
fn a_failed_test_leaves_no_temp_files_behind() {
    let dir = temp_dir("left_behind");
    let path = dir.to_path_buf();
    let failed = std::panic::catch_unwind(move || {
        let m = random_interval_matrix(819, 9, 6, 1.0);
        let run = || {
            Pipeline::new(&m, IsvdConfig::new(3))
                .unwrap()
                .run(IsvdAlgorithm::Isvd2)
        };
        snapshots_in(&dir).scope(run).unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "one snapshot saved"
        );
        panic!("the test fails after writing");
    });
    assert!(failed.is_err());
    assert!(!path.exists(), "{path:?} outlived its test");
}

/// Restoring from a directory that was never written to is a silent cold
/// start — including through the auto knob.
#[test]
fn missing_snapshot_is_a_cold_start_not_an_error() {
    let m = random_interval_matrix(817, 10, 6, 1.0);
    let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
    let report = p
        .restore_from(temp_dir("empty").join("never_written.snap"))
        .unwrap();
    assert_eq!(report, RestoreReport::default());
    let r = p.run(IsvdAlgorithm::Isvd4).unwrap();
    assert_eq!(r.timings.cache_hits, 0);
}
