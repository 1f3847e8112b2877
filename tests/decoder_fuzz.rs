//! Decoder fuzzing for the readers of untrusted bytes: `binfmt` records,
//! the snapshot loader built on them, and the `state_text` readers of the
//! streamed-Gram accumulators. Inputs are random bytes, cuts at random
//! offsets, bit flips, flipped kind bytes, length fields that lie,
//! records spliced in from another matrix's snapshot, and accumulator
//! state headers with a field replaced. Each property asserts that
//! decoding does not panic and that no single allocation made while
//! decoding exceeds the input length plus [`SLACK`]; a salvaged restore
//! must leave `run_all` giving the cold run's factors (`==` on every
//! bound), and an unmodified accumulator state must read back and write
//! out to the same bytes.
//!
//! Allocation sizes come from the counting global allocator in
//! `tests/support/counting_alloc.rs`, which records the largest
//! allocation per thread, so the properties may run concurrently.

use std::sync::OnceLock;

use std::io;

use ivmf_core::{IsvdConfig, IsvdResult, Pipeline};
use ivmf_data::binfmt::{self, MAX_RECORD_LEN, REC_END};
use ivmf_data::fnv::fnv1a64;
use ivmf_interval::{CsrIntervalShard, Interval, IntervalMatrix, StreamingIntervalGram};
use ivmf_linalg::random::uniform_matrix;
use ivmf_linalg::streaming::GROUP_ROWS;
use ivmf_linalg::{CrossGramAccumulator, CsrShard, GramAccumulator, Matrix};
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

/// The accumulator state kinds [`reencode`] reads: the scalar Gram and
/// cross accumulators over dense and CSR blocks, then the interval Gram.
const STATE_KINDS: [&str; 5] = [
    "gram",
    "sparsegram",
    "crossgram",
    "sparsecrossgram",
    "interval",
];

/// Reads an accumulator state of kind `STATE_KINDS[kind]` and writes it
/// back out.
fn reencode(kind: usize, mut bytes: &[u8]) -> io::Result<Vec<u8>> {
    let r: &mut dyn io::BufRead = &mut bytes;
    let mut out = Vec::new();
    match kind {
        0 => GramAccumulator::<Matrix>::read_state(r)?.write_state(&mut out)?,
        1 => GramAccumulator::<CsrShard>::read_state(r)?.write_state(&mut out)?,
        2 => CrossGramAccumulator::<Matrix>::read_state(r)?.write_state(&mut out)?,
        3 => CrossGramAccumulator::<CsrShard>::read_state(r)?.write_state(&mut out)?,
        _ => StreamingIntervalGram::read_state(r)?.write_state(&mut out)?,
    }
    Ok(out)
}

/// One valid state per accumulator kind and block type, and per interval
/// Gram representation and flavour, as `(kind, bytes)`. The rows cross a
/// merge group, so every state holds a master partial, a group partial
/// and a pending tail.
fn states() -> &'static [(usize, Vec<u8>)] {
    static STATES: OnceLock<Vec<(usize, Vec<u8>)>> = OnceLock::new();
    STATES.get_or_init(|| {
        let (rows, cols) = (GROUP_ROWS + 170, 5);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sparse = |_, _| match rng.gen_range(0..3) {
            0 => rng.gen_range(-1.0..1.0),
            _ => 0.0,
        };
        let (a, b) = (
            Matrix::from_fn(rows, cols, &mut sparse),
            Matrix::from_fn(rows, cols, &mut sparse),
        );
        let (ca, cb) = (CsrShard::from_dense(&a), CsrShard::from_dense(&b));
        let state = |write: &dyn Fn(&mut Vec<u8>) -> io::Result<()>| {
            let mut buf = Vec::new();
            write(&mut buf).unwrap();
            buf
        };
        let mut gram = GramAccumulator::new(cols);
        gram.push_block(&a).unwrap();
        let mut sparse_gram = GramAccumulator::new(cols);
        sparse_gram.push_block(&ca).unwrap();
        let mut cross = CrossGramAccumulator::new(cols, cols);
        cross.push_blocks(&a, &b).unwrap();
        let mut sparse_cross = CrossGramAccumulator::new(cols, cols);
        sparse_cross.push_blocks(&ca, &cb).unwrap();
        let mut out = vec![
            (0, state(&|w| gram.write_state(w))),
            (1, state(&|w| sparse_gram.write_state(w))),
            (2, state(&|w| cross.write_state(w))),
            (3, state(&|w| sparse_cross.write_state(w))),
        ];
        let hi = Matrix::from_fn(rows, cols, |i, j| b[(i, j)].abs() + a[(i, j)]);
        let m = IntervalMatrix::from_bounds(a.clone(), hi).unwrap();
        let csr = CsrIntervalShard::from_dense(&m);
        for mid_rad in [false, true] {
            let mut dense = StreamingIntervalGram::with_flavour(cols, mid_rad);
            dense.push(&m).unwrap();
            let mut sparse = StreamingIntervalGram::with_flavour_csr(cols, mid_rad);
            sparse.push(&csr).unwrap();
            out.push((4, state(&|w| dense.write_state(w))));
            out.push((4, state(&|w| sparse.write_state(w))));
        }
        out
    })
}

/// `(start, end)` of every state header line in `bytes`: the outer one
/// and those of the inner accumulators of an interval Gram.
fn header_lines(bytes: &[u8]) -> Vec<(usize, usize)> {
    let tags = ["gram", "sparsegram", "crossgram", "sparsecrossgram"];
    let tags = tags.iter().chain(&["intervalgram", "sparseintervalgram"]);
    let tags: Vec<String> = tags.map(|t| format!("{t} ")).collect();
    let starts = (0..bytes.len()).filter(|&p| p == 0 || bytes[p - 1] == b'\n');
    let headers = starts.filter(|&p| tags.iter().any(|t| bytes[p..].starts_with(t.as_bytes())));
    let line_end = |p: usize| p + bytes[p..].iter().position(|&b| b == b'\n').unwrap();
    headers.map(|p| (p, line_end(p))).collect()
}

/// `bytes` with field `field` of the header line at `line` replaced by
/// the `value`-th replacement: 0, the field plus one, `usize::MAX`, a
/// value whose product with any other size overflows, or a large size
/// in range (4096 columns declare a 128 MiB partial).
fn replace_field(
    bytes: &[u8],
    (start, end): (usize, usize),
    field: usize,
    value: usize,
) -> Vec<u8> {
    let line = std::str::from_utf8(&bytes[start..end]).unwrap();
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    let k = 1 + field % (tokens.len() - 1);
    let old: usize = tokens[k].parse().unwrap();
    tokens[k] = [0, old + 1, usize::MAX, 1 << 33, 1 << 12][value].to_string();
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(tokens.join(" ").as_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every accumulator state cut, bit-flipped and with one header field
    /// replaced: reading it never panics and never allocates past the
    /// input, and the unmodified state round-trips to the same bytes.
    #[test]
    fn accumulator_state_readers_survive_mangled_headers(
        at in 0usize..1 << 20,
        bit in 0u8..8,
        field in 0usize..16,
        value in 0usize..5,
    ) {
        for (i, (kind, state)) in states().iter().enumerate() {
            let name = STATE_KINDS[*kind];
            let same = bounded(state, name, |b| reencode(*kind, b)).unwrap();
            prop_assert!(&same == state, "{} state {} does not round-trip", name, i);
            let headers = header_lines(state);
            let mut flipped = state.clone();
            flipped[at % state.len()] ^= 1 << bit;
            for (mangle, input) in [
                ("cut", state[..at % state.len()].to_vec()),
                ("bit flip", flipped),
                ("field", replace_field(state, headers[at % headers.len()], field, value)),
            ] {
                let context = format!("{name} state {i}, {mangle} (at {at})");
                let _ = bounded(&input, &context, |b| reencode(*kind, b));
            }
        }
    }

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
