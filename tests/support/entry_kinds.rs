//! The entry-kind table: every way to open a decomposition session, dense
//! or CSR, borrowed, owned or streamed from disk, must reproduce pinned
//! content ids and factor bits, before and after an append. A binary opts
//! in with `#[path = "support/entry_kinds.rs"] mod entry_kinds;` next to
//! `#[path = "support/temp_path.rs"] mod temp_path;` and calls
//! [`check_every_entry_kind`] — once as it stands, or once per
//! [`ivmf_env::Settings`] scope whose sessions must keep the same pins.

#![allow(dead_code)]

use ivmf_core::pipeline::Pipeline;
use ivmf_core::{IsvdConfig, IsvdResult};
use ivmf_data::stream::{write_csr_matrix, write_interval_matrix, CsrShardReader, ShardReader};
use ivmf_interval::{
    CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix, IntervalShard,
    RowShardedIntervalMatrix,
};
use ivmf_linalg::random::uniform_matrix;
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::temp_path::TempPath;

/// Mirrors `ivmf_core::test_support::random_interval_matrix` (which is
/// `cfg(test)`-gated and invisible to integration tests); keep the two in
/// sync.
pub fn random_interval_matrix(seed: u64, n: usize, m: usize, span: f64) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lo = uniform_matrix(&mut rng, n, m, 0.5, 4.0);
    let spans = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..span));
    let hi = lo.add(&spans).unwrap();
    IntervalMatrix::from_bounds(lo, hi).unwrap()
}

/// The matrix every entry kind opens: 36 rows (a third of the cells
/// `[0, 0]`, so the CSR form stores less) and the 5 rows appended to it.
pub fn entry_kind_fixture() -> (IntervalMatrix, IntervalMatrix) {
    let full = random_interval_matrix(808, 41, 11, 1.0);
    let keep = |i: usize, j: usize| (i * 11 + j) % 3 != 1;
    let thin =
        |b: &Matrix| Matrix::from_fn(41, 11, |i, j| if keep(i, j) { b[(i, j)] } else { 0.0 });
    let full = IntervalMatrix::from_bounds(thin(full.lo()), thin(full.hi())).unwrap();
    (
        full.row_slice(0, 36).unwrap(),
        full.row_slice(36, 41).unwrap(),
    )
}

/// FNV-1a of the bits of every factor (U, Σ, V bounds) of the runs.
pub fn factor_digest(results: &[IsvdResult]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        let f = &r.factors;
        let sigma: Vec<f64> = f.sigma.iter().flat_map(|s| [s.lo(), s.hi()]).collect();
        let (u, v) = (&f.u, &f.v);
        for vals in [
            u.lo().as_slice(),
            u.hi().as_slice(),
            &sigma,
            v.lo().as_slice(),
            v.hi().as_slice(),
        ] {
            for x in vals {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    ivmf_data::fnv::fnv1a64(&bytes)
}

/// A session's content id and factor digest, then — if the append of
/// `rows` is accepted — the same pair after it (a rejected append must
/// leave the id).
pub type EntryOutcome = ((u64, u64), Option<(u64, u64)>);

pub fn exercise<S: IntervalShard, R: IntervalShard>(
    mut session: Pipeline<'_, S>,
    rows: R,
) -> EntryOutcome {
    let state = |s: &mut Pipeline<'_, S>| (s.content_id(), factor_digest(&s.run_all().unwrap()));
    let before = state(&mut session);
    let after = match session.append_rows(rows) {
        Ok(()) => Some(state(&mut session)),
        Err(_) => {
            assert_eq!(
                session.content_id(),
                before.0,
                "a rejected append moved the id"
            );
            None
        }
    };
    (before, after)
}

/// One row of the table: the entry kind, the run that opens and
/// exercises its session, the pinned `(id, id after the append)` and
/// whether it accepts the append.
type Case<'a> = (
    &'static str,
    Box<dyn FnOnce() -> EntryOutcome + 'a>,
    (u64, u64),
    bool,
);

// Computed at commit 7e31f33, when each representation still had its own
// session code: content ids name snapshot files, so they must not move,
// and every entry kind must keep the factor bits.
/// Content ids of the dense entry kinds, before and after the append.
pub const DENSE: (u64, u64) = (0xfea0_61ac_d070_8252, 0x3970_02b0_67d7_2034);
/// Content ids of the CSR entry kinds, before and after the append.
pub const CSR: (u64, u64) = (0x3de7_8314_913f_96ad, 0xd633_8c1b_cc11_1293);
/// Factor digests with the default interval flavour, before and after the
/// append.
pub const DIGESTS: (u64, u64) = (0xe29d_af96_6e75_1513, 0x0eb5_d9b5_e91a_c1d3);

/// [`entry_kind_digests`], pinned to [`DIGESTS`].
pub fn check_every_entry_kind() {
    assert_eq!(entry_kind_digests(), DIGESTS, "factor bits moved");
}

/// Opens every entry kind in turn, runs all five algorithms and appends;
/// asserts the pinned content ids and that every entry kind has the same
/// factor bits, and returns their digests before and after the append.
/// Each session opens only when its row runs, so with a snapshot
/// directory set later sessions warm-restore the snapshots earlier ones
/// saved on drop.
pub fn entry_kind_digests() -> (u64, u64) {
    let (m, extra) = entry_kind_fixture();
    let extra_csr = CsrIntervalShard::from_dense(&extra);
    let c = IsvdConfig::new(4);
    let dense_shards = RowShardedIntervalMatrix::from_dense(&m, 7).unwrap();
    let csr = CsrIntervalShard::from_dense(&m);
    let csr_one = CsrShardedIntervalMatrix::from_csr(&csr, m.rows()).unwrap();
    let csr_shards = CsrShardedIntervalMatrix::from_csr(&csr, 7).unwrap();
    let (dense_path, csr_path) = (TempPath::new("kinds_dense"), TempPath::new("kinds_csr"));
    write_interval_matrix(&dense_path, &m).unwrap();
    write_csr_matrix(&csr_path, &csr).unwrap();
    let reader = || Box::new(ShardReader::open(&dense_path, 7).unwrap());
    let csr_reader = || Box::new(CsrShardReader::open(&csr_path, 7).unwrap());
    let dense_rows = || extra.clone();
    let csr_rows = || extra_csr.clone();

    // Every entry kind of each representation, and whether it accepts an
    // append (lazy sessions do not); then the mixed representations: a
    // CSR session compresses dense rows, a dense session refuses CSR rows.
    let cases: Vec<Case<'_>> = vec![
        (
            "dense borrowed",
            Box::new(|| exercise(Pipeline::new(&m, c).unwrap(), dense_rows())),
            DENSE,
            true,
        ),
        (
            "dense sharded",
            Box::new(|| {
                exercise(
                    Pipeline::new_sharded(&dense_shards, c).unwrap(),
                    dense_rows(),
                )
            }),
            DENSE,
            true,
        ),
        (
            "dense owned",
            Box::new(|| {
                let session = Pipeline::from_shards(dense_shards.clone(), c).unwrap();
                exercise(session, dense_rows())
            }),
            DENSE,
            true,
        ),
        (
            "dense lazy",
            Box::new(|| exercise(Pipeline::new_streaming(reader(), c).unwrap(), dense_rows())),
            DENSE,
            false,
        ),
        (
            "dense lazy send",
            Box::new(|| {
                let session = Pipeline::new_streaming_send(reader(), c).unwrap();
                exercise(session, dense_rows())
            }),
            DENSE,
            false,
        ),
        (
            "csr borrowed",
            Box::new(|| exercise(Pipeline::new_sharded(&csr_one, c).unwrap(), csr_rows())),
            CSR,
            true,
        ),
        (
            "csr sharded",
            Box::new(|| exercise(Pipeline::new_sharded(&csr_shards, c).unwrap(), csr_rows())),
            CSR,
            true,
        ),
        (
            "csr owned",
            Box::new(|| {
                let session = Pipeline::from_shards(csr_shards.clone(), c).unwrap();
                exercise(session, csr_rows())
            }),
            CSR,
            true,
        ),
        (
            "csr lazy",
            Box::new(|| {
                let session = Pipeline::new_streaming_csr(csr_reader(), c).unwrap();
                exercise(session, csr_rows())
            }),
            CSR,
            false,
        ),
        (
            "csr lazy send",
            Box::new(|| {
                let session = Pipeline::new_streaming_csr_send(csr_reader(), c).unwrap();
                exercise(session, csr_rows())
            }),
            CSR,
            false,
        ),
        (
            "dense rows, csr",
            Box::new(|| {
                let session = Pipeline::from_shards(csr_shards.clone(), c).unwrap();
                exercise(session, dense_rows())
            }),
            CSR,
            true,
        ),
        (
            "csr rows, dense",
            Box::new(|| {
                let session = Pipeline::from_shards(dense_shards.clone(), c).unwrap();
                exercise(session, csr_rows())
            }),
            DENSE,
            false,
        ),
    ];
    let outcomes: Vec<_> = cases
        .into_iter()
        .map(|(kind, run, ids, accepts)| (kind, run(), ids, accepts))
        .collect();

    let ((_, digest), appended) = outcomes[0].1;
    let digests = (digest, appended.unwrap().1);
    for (kind, (before, after), ids, accepts) in outcomes {
        assert_eq!(before, (ids.0, digests.0), "{kind}: id and factor bits");
        let want = accepts.then_some((ids.1, digests.1));
        assert_eq!(after, want, "{kind}: id and factor bits after the append");
    }
    digests
}
