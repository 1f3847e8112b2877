//! Pins the bytes of every streamed-Gram state format.
//!
//! Round-trip tests pass even when a format drifts (the writer and the
//! reader drift together); this test does not. It hashes (FNV-1a):
//!
//! * `write_state` of the four scalar accumulators (dense/CSR ×
//!   Gram/cross);
//! * `write_state` of the interval Gram in both representations and both
//!   flavours;
//! * `write_snapshot` of a dense and of a CSR session after
//!   `interval_gram()` only — which covers the snapshot's magic, its
//!   record framing and its Gram record.
//!
//! The input has `GROUP_ROWS + 300` rows, so every state carries a master
//! partial, a group partial and a pending tail. Its values are small
//! dyadic rationals (multiples of 0.125 of magnitude at most 3), so every
//! product and partial sum is exact: the bytes are the same whether or
//! not the build fuses multiply-adds. The expected hashes were computed
//! at commit b20d2b5, before the dense and CSR accumulators shared one
//! fold implementation, so a refactor of the fold must leave every hash
//! in place.

use ivmf_core::{IsvdConfig, Pipeline};
use ivmf_data::fnv::fnv1a64;
use ivmf_interval::{CsrShardedIntervalMatrix, IntervalMatrix, StreamingIntervalGram};
use ivmf_linalg::streaming::GROUP_ROWS;
use ivmf_linalg::{CrossGramAccumulator, CsrShard, GramAccumulator, Matrix};

const ROWS: usize = GROUP_ROWS + 300;
const COLS: usize = 6;
const SHARD_ROWS: usize = 1000;

/// Multiples of 0.5 in `[-2, 2]` from a deterministic LCG (about one
/// entry in nine is zero, so the CSR forms skip some entries).
fn dyadic(rows: usize, cols: usize, mut state: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 9) as f64 * 0.5 - 2.0
    })
}

fn interval() -> IntervalMatrix {
    let lo = dyadic(ROWS, COLS, 1);
    let span = dyadic(ROWS, COLS, 2);
    let hi = Matrix::from_fn(ROWS, COLS, |i, j| lo[(i, j)] + 0.25 * (span[(i, j)] + 2.0));
    IntervalMatrix::from_bounds(lo, hi).unwrap()
}

fn bytes(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf).unwrap();
    buf
}

#[test]
fn state_format_bytes_are_pinned() {
    // The default settings, whatever the environment says: the interval
    // flavour and automatic snapshots would change the state a session
    // ends up with.
    ivmf_env::Settings::default().scope(check_state_format_bytes);
}

fn check_state_format_bytes() {
    let mut got: Vec<(&str, Vec<u8>)> = Vec::new();

    let (a, b) = (dyadic(ROWS, COLS, 3), dyadic(ROWS, COLS, 4));
    let shard = |m: &Matrix, r: usize, e: usize| {
        Matrix::from_vec(e - r, COLS, m.as_slice()[r * COLS..e * COLS].to_vec()).unwrap()
    };
    let (csr_a, csr_b) = (CsrShard::from_dense(&a), CsrShard::from_dense(&b));
    let mut gram = GramAccumulator::new(COLS);
    let mut cross = CrossGramAccumulator::new(COLS, COLS);
    let mut sparse_gram = GramAccumulator::new(COLS);
    let mut sparse_cross = CrossGramAccumulator::new(COLS, COLS);
    for r in (0..ROWS).step_by(SHARD_ROWS) {
        let e = (r + SHARD_ROWS).min(ROWS);
        let (ba, bb) = (shard(&a, r, e), shard(&b, r, e));
        gram.push_block(&ba).unwrap();
        cross.push_blocks(&ba, &bb).unwrap();
        let (sa, sb) = (
            csr_a.row_slice(r, e).unwrap(),
            csr_b.row_slice(r, e).unwrap(),
        );
        sparse_gram.push_block(&sa).unwrap();
        sparse_cross.push_blocks(&sa, &sb).unwrap();
    }
    got.push(("gram", bytes(|w| gram.write_state(w))));
    got.push(("crossgram", bytes(|w| cross.write_state(w))));
    got.push(("sparsegram", bytes(|w| sparse_gram.write_state(w))));
    got.push(("sparsecrossgram", bytes(|w| sparse_cross.write_state(w))));

    let m = interval();
    let csr = CsrShardedIntervalMatrix::from_dense(&m, SHARD_ROWS).unwrap();
    for (mid_rad, dense_name, csr_name) in [
        (false, "intervalgram exact", "sparseintervalgram exact"),
        (true, "intervalgram midrad", "sparseintervalgram midrad"),
    ] {
        let mut dense = StreamingIntervalGram::with_flavour(COLS, mid_rad);
        dense.push(&m).unwrap();
        let mut sparse = StreamingIntervalGram::with_flavour_csr(COLS, mid_rad);
        for s in csr.shards() {
            sparse.push(s).unwrap();
        }
        got.push((dense_name, bytes(|w| dense.write_state(w))));
        got.push((csr_name, bytes(|w| sparse.write_state(w))));
    }

    let mut dense_session = Pipeline::new(&m, IsvdConfig::new(2)).unwrap();
    dense_session.interval_gram().unwrap();
    let mut csr_session = Pipeline::new_sharded(&csr, IsvdConfig::new(2)).unwrap();
    csr_session.interval_gram().unwrap();
    got.push(("dense snapshot", bytes(|w| dense_session.write_snapshot(w))));
    got.push(("sparse snapshot", bytes(|w| csr_session.write_snapshot(w))));

    // Every state holds a master, a group and a pending tail: 66 folded
    // chunks (one sealed group, two open) and 44 pending rows.
    assert!(got[0].1.starts_with(b"gram 6 8492 44 1 1\n"));
    // The snapshot's Gram record holds the accumulator state, whose own
    // header names its representation.
    let text = String::from_utf8_lossy(&got[9].1);
    assert!(text.contains("\nsparseintervalgram 6 8492 1\n"));

    let expected: [(&str, u64); 10] = [
        ("gram", 0x15b1f69e8e3638d0),
        ("crossgram", 0xb11e86177675e630),
        ("sparsegram", 0x3e35d3aca068c5b2),
        ("sparsecrossgram", 0x7cdd59a0318ca65e),
        ("intervalgram exact", 0x57355208a0f0c2db),
        ("sparseintervalgram exact", 0xbc9244c5974670e2),
        ("intervalgram midrad", 0xaef8aaf128811bc2),
        ("sparseintervalgram midrad", 0xd3c2e410ae5f28d6),
        ("dense snapshot", 0xf15e8580d6615da2),
        ("sparse snapshot", 0xbaff6d9c4f71f8b9),
    ];
    for ((name, buf), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(*name, want_name);
        assert_eq!(
            fnv1a64(buf),
            want,
            "{name}: state bytes drifted from the pinned format"
        );
    }

    // The pinned snapshot bytes restore the Gram accumulator.
    let snapshot = &got[9].1;
    let mut restored = Pipeline::new_sharded(&csr, IsvdConfig::new(2)).unwrap();
    let report = restored.read_snapshot(&mut &snapshot[..]);
    assert!(report.gram_restored && report.checksum_ok, "{report:?}");
}
