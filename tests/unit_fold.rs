//! Acceptance suite for the merge-group unit fold of the interval Gram:
//! with `IVMF_THREADS` > 1 the Gram stage cuts its input into
//! `GROUP_ROWS`-aligned units, folds them concurrently and absorbs them
//! in unit order. For every input route and thread count this must be
//! invisible:
//!
//! * all five ISVD algorithms come out **bitwise identical** to the
//!   one-thread run;
//! * the session snapshot — stage cache plus the retained Gram
//!   accumulator — is **byte-identical**;
//! * `append_rows` on the unit-folded accumulator followed by ISVD2–4
//!   equals a cold run over the extended matrix.
//!
//! Both interval-Gram flavours are covered, one test each: the
//! size-dispatched midpoint–radius fold and the exact fold pinned by
//! [`Settings::exact_interval`]. So are both Gram kernels on one logical
//! matrix (a dense session and a CSR session over the same rows), the
//! CSR kernel a sparse enough dense session picks on its own, and the
//! streamed CSR route at every prefetch depth. Every setting is set in a
//! [`Settings::scope`], so the two tests run concurrently.

#[path = "support/temp_path.rs"]
mod temp_path;

use ivmf_core::pipeline::{run_all, Pipeline, DEFAULT_SPARSE_THRESHOLD};
use ivmf_core::{run_all_sharded, IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, generate_uniform, PowerLawConfig, SyntheticConfig};
use ivmf_env::Settings;
use ivmf_interval::{CsrShardedIntervalMatrix, IntervalShard, RowShardedIntervalMatrix};
use ivmf_linalg::streaming::GROUP_ROWS;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use temp_path::TempPath;

/// Three units: two full groups and a 700-row partial one.
const ROWS: usize = 2 * GROUP_ROWS + 700;
/// Rows appended after the unit fold (still inside the third group).
const APPEND: usize = 900;
/// In-memory and streamed shard size that straddles every unit boundary.
const STRADDLING_SHARD_ROWS: usize = 3000;

fn assert_bitwise(a: &[IsvdResult], b: &[IsvdResult], algs: &[IsvdAlgorithm], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: result counts differ");
    for ((ra, rb), alg) in a.iter().zip(b).zip(algs) {
        assert!(
            !ra.factors.u.has_non_finite() && !ra.factors.v.has_non_finite(),
            "{context}: {alg} produced non-finite factors"
        );
        assert_eq!(ra.factors.u, rb.factors.u, "{context}: {alg} U differs");
        assert_eq!(ra.factors.v, rb.factors.v, "{context}: {alg} V differs");
        assert_eq!(
            ra.factors.sigma, rb.factors.sigma,
            "{context}: {alg} core differs"
        );
    }
}

/// Runs all five algorithms and returns them with the session's snapshot
/// bytes (written after the run, so they hold the retained accumulator).
fn run_and_snapshot<S: IntervalShard>(mut session: Pipeline<'_, S>) -> (Vec<IsvdResult>, Vec<u8>) {
    let results = session.run_all().unwrap().to_vec();
    let mut snapshot = Vec::new();
    session.write_snapshot(&mut snapshot).unwrap();
    (results, snapshot)
}

/// ISVD2–4 after appending `extra` to a session that already folded its
/// Gram.
fn append_then_gram_route<S: IntervalShard>(
    mut session: Pipeline<'_, S>,
    append: impl FnOnce(&mut Pipeline<'_, S>),
) -> Vec<IsvdResult> {
    session.run(IsvdAlgorithm::Isvd2).unwrap();
    append(&mut session);
    GRAM_ROUTE
        .iter()
        .map(|&alg| session.run(alg).unwrap())
        .collect()
}

const GRAM_ROUTE: [IsvdAlgorithm; 3] = [
    IsvdAlgorithm::Isvd2,
    IsvdAlgorithm::Isvd3,
    IsvdAlgorithm::Isvd4,
];

/// Whether a session snapshot holds its retained Gram in the CSR
/// accumulator (its state header tag).
fn holds_csr_gram(snapshot: &[u8]) -> bool {
    let tag = b"\nsparseintervalgram ";
    snapshot.windows(tag.len()).any(|w| w == tag)
}

#[test]
fn unit_fold_is_thread_count_invariant_on_every_route() {
    check_unit_fold(false);
}

#[test]
fn unit_fold_is_thread_count_invariant_on_every_route_with_the_exact_envelope() {
    check_unit_fold(true);
}

fn check_unit_fold(exact_interval: bool) {
    let flavour = if exact_interval { "exact" } else { "mid-rad" };
    let at = |threads: usize, prefetch: usize| Settings {
        threads,
        prefetch,
        exact_interval,
        snapshot_dir: None,
    };
    let config = IsvdConfig::new(4);
    let all = IsvdAlgorithm::all();

    let mut rng = SmallRng::seed_from_u64(2024);
    let dense_ext = generate_uniform(
        &SyntheticConfig::paper_default().with_shape(ROWS + APPEND, 10),
        &mut rng,
    );
    let dense = dense_ext.row_slice(0, ROWS).unwrap();
    let dense_extra = dense_ext.row_slice(ROWS, ROWS + APPEND).unwrap();
    let dense_sharded =
        RowShardedIntervalMatrix::from_dense(&dense, STRADDLING_SHARD_ROWS).unwrap();
    // The same logical matrix as CSR shards: the other Gram kernel.
    let dense_as_csr = CsrShardedIntervalMatrix::from_dense(&dense, STRADDLING_SHARD_ROWS).unwrap();

    let mut rng = SmallRng::seed_from_u64(2025);
    let csr_ext = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS + APPEND, 12).with_nnz_per_row(4),
        &mut rng,
    );
    let csr = csr_ext.row_slice(0, ROWS).unwrap();
    let csr_extra = csr_ext.row_slice(ROWS, ROWS + APPEND).unwrap();
    // Unit-aligned in-memory shards (the out-of-core benchmark's layout)...
    let sparse = CsrShardedIntervalMatrix::from_csr(&csr, GROUP_ROWS / 2).unwrap();
    // ...and a streamed reader whose owned shards straddle unit boundaries.
    let path = TempPath::new("unit_fold_csr");
    let mut writer = CsrShardWriter::create(&path, ROWS, csr.cols()).unwrap();
    writer.push_shard(&csr).unwrap();
    writer.finish().unwrap();
    // The prefetch depth is the one in force when the session opens.
    let streamed = |threads: usize, prefetch: usize| {
        at(threads, prefetch).scope(|| {
            let reader = CsrShardReader::open(&path, STRADDLING_SHARD_ROWS).unwrap();
            Pipeline::new_streaming_csr_send(Box::new(reader), config).unwrap()
        })
    };

    // A dense matrix sparse enough that its in-memory sessions fold the
    // Gram through the CSR accumulator on their own (each unit
    // CSR-compresses its rows).
    let mut rng = SmallRng::seed_from_u64(2026);
    let thin = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS, 24).with_nnz_per_row(2),
        &mut rng,
    )
    .to_dense();
    let stored = thin.lo().as_slice().iter().filter(|&&x| x != 0.0).count();
    assert!(stored as f64 <= DEFAULT_SPARSE_THRESHOLD * (ROWS * 24) as f64);
    let thin_sharded = RowShardedIntervalMatrix::from_dense(&thin, STRADDLING_SHARD_ROWS).unwrap();

    let (cold_dense, cold_sparse) = at(1, 1).scope(|| {
        let cold_sparse = run_all_sharded(
            &CsrShardedIntervalMatrix::from_csr(&csr_ext, GROUP_ROWS / 2).unwrap(),
            &config,
        );
        (run_all(&dense_ext, &config).unwrap(), cold_sparse.unwrap())
    });
    let mut baseline: Vec<(Vec<IsvdResult>, Vec<u8>)> = Vec::new();

    for threads in [1, 2, 3] {
        at(threads, 1).scope(|| {
            let runs = vec![
                (
                    "dense one block",
                    run_and_snapshot(Pipeline::new(&dense, config).unwrap()),
                ),
                (
                    "dense 3000-row shards",
                    run_and_snapshot(Pipeline::new_sharded(&dense_sharded, config).unwrap()),
                ),
                (
                    "sparse in-memory",
                    run_and_snapshot(Pipeline::new_sharded(&sparse, config).unwrap()),
                ),
                ("sparse streamed", run_and_snapshot(streamed(threads, 1))),
                (
                    "sparse streamed, prefetch 0",
                    run_and_snapshot(streamed(threads, 0)),
                ),
                (
                    "sparse streamed, prefetch 2",
                    run_and_snapshot(streamed(threads, 2)),
                ),
                (
                    "dense rows as CSR 3000-row shards",
                    run_and_snapshot(Pipeline::new_sharded(&dense_as_csr, config).unwrap()),
                ),
                (
                    "thin dense 3000-row shards",
                    run_and_snapshot(Pipeline::new_sharded(&thin_sharded, config).unwrap()),
                ),
            ];

            for (i, (route, (results, snapshot))) in runs.into_iter().enumerate() {
                let context = format!("{flavour}, {route}, {threads} threads");
                if threads == 1 {
                    baseline.push((results, snapshot));
                    continue;
                }
                assert_bitwise(&results, &baseline[i].0, &all, &context);
                assert!(
                    snapshot == baseline[i].1,
                    "{context}: snapshot bytes differ from the one-thread fold"
                );
            }
            let appended = append_then_gram_route(Pipeline::new(&dense, config).unwrap(), |s| {
                s.append_rows(dense_extra.clone()).unwrap()
            });
            assert_bitwise(
                &appended,
                &cold_dense[2..],
                &GRAM_ROUTE,
                &format!("{flavour}, dense append, {threads} threads"),
            );
            let appended =
                append_then_gram_route(Pipeline::new_sharded(&sparse, config).unwrap(), |s| {
                    s.append_rows(csr_extra.clone()).unwrap()
                });
            assert_bitwise(
                &appended,
                &cold_sparse[2..],
                &GRAM_ROUTE,
                &format!("{flavour}, sparse append, {threads} threads"),
            );
        });
    }
    // Shard layout, prefetch depth and Gram kernel stay invisible too.
    assert_bitwise(&baseline[1].0, &baseline[0].0, &all, "dense layouts");
    assert_bitwise(&baseline[3].0, &baseline[2].0, &all, "sparse routes");
    for i in [4, 5] {
        assert_bitwise(&baseline[i].0, &baseline[3].0, &all, "prefetch depths");
        assert!(
            baseline[i].1 == baseline[3].1,
            "prefetch moved snapshot bytes"
        );
    }
    assert!(!holds_csr_gram(&baseline[1].1) && holds_csr_gram(&baseline[6].1));
    assert_bitwise(&baseline[6].0, &baseline[1].0, &all, "dense vs sparse Gram");
    assert!(
        holds_csr_gram(&baseline[7].1),
        "thin dense rows kept the dense Gram"
    );
}
