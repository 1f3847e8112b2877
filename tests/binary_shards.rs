//! Acceptance suite for the binary shard containers and the pooled /
//! prefetched ingest pipeline:
//!
//! * **container ↔ in-memory equivalence** (property-tested): any
//!   interval matrix / CSR interval shard — including empty and
//!   degenerate shapes — written as a container reads back bit-for-bit
//!   identical to the in-memory original, at every write split and shard
//!   granularity;
//! * **fault injection**: a binary record stream corrupted at an
//!   arbitrary byte (truncation, bit flip, hard I/O error via
//!   `ivmf_data::fault`) always surfaces a typed `io::Error` or a clean
//!   end-of-stream — never a panic and never silently wrong data;
//! * **cell validation**: a stored cell that is not a proper interval
//!   (NaN or ±Inf bound, or lo > hi) is a typed error naming its cell;
//! * **prefetch / pool bitwise identity**: all five ISVD algorithms over
//!   a disk-streamed session (`Pipeline::new_streaming_send` /
//!   `new_streaming_csr_send`) produce bitwise-identical factors at
//!   every prefetch depth (0, 1, 2), from containers blocked two
//!   different ways, and on a re-run that reuses the dirty buffer pool.

#[path = "support/temp_path.rs"]
mod temp_path;

use std::io::{self, Read};
use std::path::Path;

use ivmf_core::pipeline::{run_all, Pipeline};
use ivmf_core::{IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::fault::{FaultSchedule, FaultyReader};
use ivmf_data::stream::{
    load_sharded, CsrShardReader, CsrShardWriter, ShardReader, ShardWriter, StreamError,
};
use ivmf_data::{binfmt, synthetic};
use ivmf_env::Settings;
use ivmf_interval::{CsrIntervalShard, IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use temp_path::TempPath;

fn tmp_path(tag: &str) -> TempPath {
    TempPath::new(&format!("binary_shards_{tag}"))
}

/// The default settings at prefetch depth `prefetch`.
fn prefetch_depth(prefetch: usize) -> Settings {
    Settings {
        prefetch,
        ..Settings::default()
    }
}

fn write_dense(path: &Path, m: &IntervalMatrix, split: usize) {
    let mut w = ShardWriter::create(path, m.rows(), m.cols()).unwrap();
    if m.rows() > 0 {
        let blocks = RowShardedIntervalMatrix::from_dense(m, split.max(1)).unwrap();
        for shard in blocks.shards() {
            w.push_shard(shard).unwrap();
        }
    }
    w.finish().unwrap();
}

fn read_dense(path: &Path, shard_rows: usize) -> (Vec<f64>, Vec<f64>) {
    let mut r = ShardReader::open(path, shard_rows).unwrap();
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    while let Some(shard) = r.read_shard().unwrap() {
        lo.extend_from_slice(shard.lo().as_slice());
        hi.extend_from_slice(shard.hi().as_slice());
    }
    (lo, hi)
}

fn write_csr(path: &Path, s: &CsrIntervalShard, split: usize) {
    let mut w = CsrShardWriter::create(path, s.rows(), s.cols()).unwrap();
    let mut start = 0;
    while start < s.rows() {
        let end = (start + split.max(1)).min(s.rows());
        w.push_shard(&s.row_slice(start, end).unwrap()).unwrap();
        start = end;
    }
    w.finish().unwrap();
}

/// Flattens every shard the reader yields into one comparable tuple
/// (rebased row extents, columns, lo values, hi values).
fn read_csr(path: &Path, shard_rows: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
    let mut r = CsrShardReader::open(path, shard_rows).unwrap();
    let (mut lens, mut cols, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while let Some(shard) = r.read_shard().unwrap() {
        let pat = shard.lo_shard();
        for w in pat.row_ptr().windows(2) {
            lens.push(w[1] - w[0]);
        }
        cols.extend_from_slice(pat.col_idx());
        lo.extend_from_slice(pat.values());
        hi.extend_from_slice(shard.hi_values());
    }
    (lens, cols, lo, hi)
}

fn arb_dense() -> impl Strategy<Value = (usize, usize, u64, usize, usize)> {
    // Shapes include empty (0 rows) and single-column degenerates; the
    // split / read granularities run from 1-row shards to one block.
    (0usize..40, 1usize..10, 1u64..1000, 1usize..45, 1usize..45)
}

fn dense_matrix(rows: usize, cols: usize, seed: u64) -> IntervalMatrix {
    if rows == 0 {
        let empty = Matrix::from_vec(0, cols, Vec::new()).unwrap();
        return IntervalMatrix::from_bounds(empty.clone(), empty).unwrap();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    synthetic::generate_uniform(
        &synthetic::SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    )
}

fn csr_shard(rows: usize, cols: usize, seed: u64) -> CsrIntervalShard {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s
    };
    let mut entries = Vec::new();
    for i in 0..rows {
        // 0–3 entries per row, so some rows are empty (degenerate rows).
        for _ in 0..(next() % 4) {
            let c = (next() as usize) % cols;
            let lo = ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            if !entries.iter().any(|&(r, cc, _, _)| r == i && cc == c) {
                entries.push((i, c, lo, lo + 0.25));
            }
        }
    }
    CsrIntervalShard::from_triplets(rows, cols, &entries).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dense containers round-trip the in-memory matrix bit-for-bit at
    /// every write split and read granularity.
    #[test]
    fn dense_containers_round_trip_bitwise(
        (rows, cols, seed, split, shard_rows) in arb_dense()
    ) {
        let m = dense_matrix(rows, cols, seed);
        let path = tmp_path("pd");
        write_dense(&path, &m, split);
        let (lo, hi) = read_dense(&path, shard_rows);
        prop_assert_eq!(lo, m.lo().as_slice().to_vec());
        prop_assert_eq!(hi, m.hi().as_slice().to_vec());
    }

    /// The CSR twin: the in-memory shard's structure and values read
    /// back identically, including empty matrices and all-empty rows.
    #[test]
    fn csr_containers_round_trip_bitwise(
        (rows, cols, seed, split, shard_rows) in arb_dense()
    ) {
        let s = csr_shard(rows, cols, seed);
        let path = tmp_path("pc");
        write_csr(&path, &s, split);
        let read = read_csr(&path, shard_rows);
        let pat = s.lo_shard();
        let lens: Vec<usize> = pat.row_ptr().windows(2).map(|w| w[1] - w[0]).collect();
        prop_assert_eq!(&read.0, &lens);
        prop_assert_eq!(&read.1, &pat.col_idx().to_vec());
        prop_assert_eq!(&read.2, &pat.values().to_vec());
        prop_assert_eq!(&read.3, &s.hi_values().to_vec());
    }

    /// A binary record stream corrupted at any byte — truncated, a bit
    /// flipped, or a hard I/O error — yields a typed `io::Error` or a
    /// clean end-of-stream, never a panic and never altered payloads.
    #[test]
    fn corrupted_binary_records_never_panic(
        at in 0u64..200,
        bit in 0u8..8,
        kind in 0usize..3,
    ) {
        let mut buf = Vec::new();
        binfmt::write_record(&mut buf, binfmt::REC_DENSE_HEADER, b"dense 3 4\n").unwrap();
        let payload = binfmt::encode_dense_rows(
            2,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            &[1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5],
        ).unwrap();
        binfmt::write_record(&mut buf, binfmt::REC_DENSE_BLOCK, &payload).unwrap();
        binfmt::write_record(&mut buf, binfmt::REC_END, b"").unwrap();

        let schedule = match kind {
            0 => FaultSchedule::truncate_at(at),
            1 => FaultSchedule::flip_bit(at, bit),
            _ => FaultSchedule::fail_at(at),
        };
        let mut r = FaultyReader::new(&buf[..], schedule);
        let mut seen = Vec::new();
        let _outcome: std::io::Result<()> = (|| {
            while let Some((k, p)) = binfmt::read_record(&mut r)? {
                seen.push((k, p));
            }
            Ok(())
        })();
        // Reaching here at all is the core assertion: no corruption
        // pattern may panic the decoder. Truncation and hard failure
        // never alter bytes, so every record decoded before the fault
        // must additionally be intact. (A bit flip can land on a record's
        // *kind* byte, which the payload checksum deliberately does not
        // cover — the caller validates kinds — so flips only get the
        // no-panic guarantee.)
        if kind != 1 {
            let originals: [(u8, &[u8]); 3] = [
                (binfmt::REC_DENSE_HEADER, b"dense 3 4\n"),
                (binfmt::REC_DENSE_BLOCK, &payload),
                (binfmt::REC_END, b""),
            ];
            prop_assert!(seen.len() <= originals.len());
            for ((k, p), (ok, op)) in seen.iter().zip(originals.iter()) {
                prop_assert_eq!(k, ok);
                prop_assert_eq!(&p[..], *op);
            }
        }
    }
}

/// Reads a whole file through `FaultyReader` just to prove the fixture
/// composes with buffered record decoding (truncation at EOF is clean).
#[test]
fn clean_faulty_reader_passes_records_through() {
    let mut buf = Vec::new();
    binfmt::write_record(&mut buf, binfmt::REC_END, b"payload").unwrap();
    let mut r = FaultyReader::new(&buf[..], FaultSchedule::truncate_at(buf.len() as u64));
    let mut raw = Vec::new();
    r.read_to_end(&mut raw).unwrap();
    let (kind, payload) = binfmt::read_record(&mut &raw[..]).unwrap().unwrap();
    assert_eq!(kind, binfmt::REC_END);
    assert_eq!(payload, b"payload");
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

/// All five algorithms, streamed from disk with prefetch depths 0 / 1 / 2
/// and from containers blocked two ways (37-row blocks, one block), match
/// the in-memory dense session bitwise; a second pass over dirty pooled
/// buffers matches too.
#[test]
fn streamed_sessions_are_prefetch_pool_and_format_invariant() {
    let mut rng = SmallRng::seed_from_u64(77);
    let m = synthetic::generate_uniform(
        &synthetic::SyntheticConfig::paper_default().with_shape(150, 18),
        &mut rng,
    );
    let config = IsvdConfig::new(4);
    let reference = run_all(&m, &config).unwrap();

    let (pt, pb) = (tmp_path("sess_split"), tmp_path("sess_whole"));
    write_dense(&pt, &m, 37);
    write_dense(&pb, &m, m.rows());
    for path in [&pt, &pb] {
        for depth in [0, 1, 2] {
            // Two passes: the second reuses buffers the first recycled
            // into the pool, proving dirty-buffer reuse changes nothing.
            for pass in 0..2 {
                let reader = ShardReader::open(path, 29).unwrap();
                let mut session = prefetch_depth(depth)
                    .scope(|| Pipeline::new_streaming_send(Box::new(reader), config))
                    .unwrap();
                let streamed = session.run_all().unwrap();
                assert_results_bitwise(
                    &reference,
                    &streamed,
                    &format!("dense {path:?} depth {depth} pass {pass}"),
                );
            }
        }
    }
}

/// The sparse twin of the invariance test: CSR containers through
/// `new_streaming_csr_send` at every depth and blocking, against the dense
/// in-memory reference over the same logical matrix.
#[test]
fn streamed_csr_sessions_are_prefetch_pool_and_format_invariant() {
    let s = csr_shard(140, 22, 9);
    let dense = s.to_dense();
    let config = IsvdConfig::new(4);
    let reference = run_all(&dense, &config).unwrap();

    let (pt, pb) = (tmp_path("csess_split"), tmp_path("csess_whole"));
    write_csr(&pt, &s, 31);
    write_csr(&pb, &s, s.rows());
    for path in [&pt, &pb] {
        for depth in [0, 1, 2] {
            for pass in 0..2 {
                let reader = CsrShardReader::open(path, 29).unwrap();
                let mut session = prefetch_depth(depth)
                    .scope(|| Pipeline::new_streaming_csr_send(Box::new(reader), config))
                    .unwrap();
                let streamed = session.run_all().unwrap();
                assert_results_bitwise(
                    &reference,
                    &streamed,
                    &format!("csr {path:?} depth {depth} pass {pass}"),
                );
            }
        }
    }
}

/// The shard readers reject a stored cell that is not a proper interval —
/// a NaN or ±Inf bound, or lo > hi — with a typed error naming its global
/// row and column, in dense and CSR containers, through `load_sharded`
/// and through a lazy session. Unchecked, the exact-flavour Gram envelope
/// drops a NaN and reads finite while ISVD2's left factor comes out NaN.
#[test]
fn readers_reject_improper_cells_naming_the_cell() {
    // Poisoned (row, col, lo, hi) cells, and the first one in row order.
    type Cell = (usize, usize, f64, f64);
    let cases: [(&[Cell], (usize, usize)); 3] = [
        (&[(7, 2, f64::NAN, 0.5), (9, 4, 0.5, 0.25)], (7, 2)),
        (&[(9, 4, 0.5, 0.25)], (9, 4)),
        (&[(5, 1, 0.25, f64::INFINITY)], (5, 1)),
    ];
    let base = dense_matrix(12, 5, 3);
    for (cells, (row, col)) in cases {
        let (mut lo, mut hi) = (base.lo().clone(), base.hi().clone());
        for &(r, c, l, h) in cells {
            lo[(r, c)] = l;
            hi[(r, c)] = h;
        }
        let m = IntervalMatrix::from_bounds(lo, hi).unwrap();
        let (pd, pc) = (tmp_path("bad_dense"), tmp_path("bad_csr"));
        // Four-row records, read in three-row shards: the bad cells sit
        // past the first record and off the shard boundaries.
        write_dense(&pd, &m, 4);
        write_csr(&pc, &CsrIntervalShard::from_dense(&m), 4);
        let cell = format!("cell ({row}, {col})");
        let check_io = |err: io::Error| {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            match StreamError::from_io(&err) {
                Some(StreamError::InvalidCell { row: r, col: c, .. }) => {
                    assert_eq!((*r, *c), (row, col))
                }
                other => panic!("expected InvalidCell at {cell}, got {other:?}"),
            }
            assert!(err.to_string().contains(&cell), "{err}");
        };
        check_io(load_sharded::<IntervalMatrix>(&pd, 3).unwrap_err());
        check_io(load_sharded::<CsrIntervalShard>(&pc, 3).unwrap_err());

        let config = IsvdConfig::new(2);
        let dense = Pipeline::new_streaming(Box::new(ShardReader::open(&pd, 3).unwrap()), config)
            .and_then(|mut s| s.run(IsvdAlgorithm::Isvd2));
        let csr =
            Pipeline::new_streaming_csr(Box::new(CsrShardReader::open(&pc, 3).unwrap()), config)
                .and_then(|mut s| s.run(IsvdAlgorithm::Isvd2));
        for err in [dense.unwrap_err(), csr.unwrap_err()] {
            assert!(err.to_string().contains(&cell), "{err}");
        }
    }
}
