//! Decoder fuzzing for the readers of untrusted bytes: `binfmt` records
//! and the snapshot loader built on them. Inputs are random bytes, cuts
//! at random offsets, bit flips, flipped kind bytes, length fields that
//! lie and records spliced in from another matrix's snapshot. Each
//! property asserts that decoding does not panic, that no single
//! allocation made while decoding exceeds the input length plus
//! [`SLACK`], and that whatever a salvaged restore restores, `run_all`
//! afterwards gives the cold run's factors (`==` on every bound).
//!
//! Allocation sizes come from the counting global allocator in
//! `tests/support/counting_alloc.rs`, which records the largest
//! allocation per thread, so the properties may run concurrently.

use std::sync::OnceLock;

use ivmf_core::{IsvdConfig, IsvdResult, Pipeline};
use ivmf_data::binfmt::{self, MAX_RECORD_LEN, REC_END};
use ivmf_data::fnv::fnv1a64;
use ivmf_interval::{Interval, IntervalMatrix};
use ivmf_linalg::random::uniform_matrix;
use ivmf_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// Allocation headroom over the input length: the record reader's first
/// payload step.
const SLACK: usize = 1 << 20;

/// Runs `decode` on `bytes` and asserts its largest single allocation.
fn bounded<T>(bytes: &[u8], context: &str, decode: impl FnOnce(&[u8]) -> T) -> T {
    let (out, largest) = counting_alloc::largest_allocation(|| decode(bytes));
    assert!(
        largest <= bytes.len() + SLACK,
        "{context}: a {largest}-byte allocation for a {}-byte input",
        bytes.len()
    );
    out
}

type Factors = Vec<(IntervalMatrix, Vec<Interval>, IntervalMatrix)>;

fn factors(runs: &[IsvdResult]) -> Factors {
    let f = runs.iter().map(|r| &r.factors);
    f.map(|f| (f.u.clone(), f.sigma.clone(), f.v.clone()))
        .collect()
}

/// The fuzzed matrix, its snapshot after `run_all`, the snapshot of
/// another matrix of the same shape, and the cold run's factors.
struct Fixture {
    matrix: IntervalMatrix,
    snapshot: Vec<u8>,
    foreign: Vec<u8>,
    cold: Factors,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
    FIXTURE.get_or_init(|| {
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lo = uniform_matrix(&mut rng, 12, 6, 0.5, 4.0);
            let spans = Matrix::from_fn(12, 6, |_, _| rng.gen_range(0.0..1.0));
            let m = IntervalMatrix::from_bounds(lo.clone(), lo.add(&spans).unwrap()).unwrap();
            let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
            let cold = factors(&p.run_all().unwrap());
            let mut snapshot = Vec::new();
            p.write_snapshot(&mut snapshot).unwrap();
            drop(p);
            (m, snapshot, cold)
        };
        let (matrix, snapshot, cold) = run(41);
        let (_, foreign, _) = run(42);
        Fixture {
            matrix,
            snapshot,
            foreign,
            cold,
        }
    })
}

/// `(start, len)` of every record after a snapshot's 8-byte magic.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut rest = &bytes[8..];
    let mut spans = Vec::new();
    while !rest.is_empty() {
        let start = bytes.len() - rest.len();
        binfmt::read_frame(&mut rest).unwrap().unwrap();
        spans.push((start, bytes.len() - rest.len() - start));
    }
    spans
}

/// Reads records from `bytes` until the stream ends or errs.
fn check_records(bytes: &[u8], context: &str) {
    bounded(bytes, context, |mut r| {
        while let Ok(Some(_)) = binfmt::read_record(&mut r) {}
    });
}

/// Restores `bytes` into a fresh session over the fixture's matrix, then
/// checks that `run_all` equals the cold run.
fn check_restore(bytes: &[u8], context: &str) {
    let fx = fixture();
    let mut p = Pipeline::new(&fx.matrix, IsvdConfig::new(3)).unwrap();
    let report = bounded(bytes, context, |mut r| p.read_snapshot(&mut r));
    assert!(
        factors(&p.run_all().unwrap()) == fx.cold,
        "{context}: {report:?}"
    );
}

/// `bytes` with the record at `start` declaring a `lie`-th lying length:
/// 0, one byte past the end, `u64::MAX` or `MAX_RECORD_LEN`.
fn lying(bytes: &[u8], start: usize, lie: usize) -> Vec<u8> {
    let past_end = (bytes.len() - start - binfmt::record_len(0) + 1) as u64;
    let len = [0, past_end, u64::MAX, MAX_RECORD_LEN][lie];
    let mut out = bytes.to_vec();
    out[start + 1..start + 9].copy_from_slice(&len.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes, then the fixture snapshot cut, bit-flipped, with a
    /// record's kind byte replaced and with a record's length lying; the
    /// record reader gets each input past the magic, the loader whole.
    #[test]
    fn decoders_survive_mangled_input(
        seed in 0u64..u64::MAX,
        at in 0usize..1 << 20,
        bit in 0u8..8,
        kind in 0u8..=255,
        lie in 0usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let random: Vec<u8> = (0..at % 256).map(|_| rng.gen_range(0u8..=255)).collect();
        let snapshot = &fixture().snapshot;
        let spans = record_spans(snapshot);
        let (start, _) = spans[at % spans.len()];
        let mut flipped = snapshot.clone();
        flipped[at % snapshot.len()] ^= 1 << bit;
        let mut kinded = snapshot.clone();
        kinded[start] = kind;
        for (name, input) in [
            ("random bytes", random),
            ("cut", snapshot[..at % snapshot.len()].to_vec()),
            ("bit flip", flipped),
            ("kind", kinded),
            ("lying length", lying(snapshot, start, lie)),
        ] {
            let context = format!("{name} (at {at}, record at {start})");
            check_records(&input[input.len().min(8)..], &context);
            check_restore(&input, &context);
        }
    }

    #[test]
    fn snapshot_loader_rejects_records_of_another_matrix(
        from in 0usize..64,
        to in 0usize..64,
    ) {
        let fx = fixture();
        let own = record_spans(&fx.snapshot);
        let foreign = record_spans(&fx.foreign);
        // Any foreign record but the end record, spliced in at a record
        // boundary between the matrix record and the end record.
        let (f_start, f_len) = foreign[from % (foreign.len() - 1)];
        let (at, _) = own[1 + to % (own.len() - 1)];
        let mut spliced = fx.snapshot[..at].to_vec();
        spliced.extend_from_slice(&fx.foreign[f_start..f_start + f_len]);
        spliced.extend_from_slice(&fx.snapshot[at..]);
        check_restore(&spliced, &format!("foreign record {from} at {to}"));

        // With the end record's hash recomputed the file checksum holds,
        // and the foreign record is still dropped.
        spliced.truncate(spliced.len() - binfmt::record_len(8));
        let hash = fnv1a64(&spliced);
        binfmt::write_record(&mut spliced, REC_END, &hash.to_le_bytes()).unwrap();
        let mut p = Pipeline::new(&fx.matrix, IsvdConfig::new(3)).unwrap();
        let report = p.read_snapshot(&mut &spliced[..]);
        prop_assert!(report.checksum_ok && report.dropped >= 1, "{report:?}");
        prop_assert!(factors(&p.run_all().unwrap()) == fx.cold);
    }
}
