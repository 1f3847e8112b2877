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
//! Both interval-Gram flavours are covered: the size-dispatched
//! midpoint–radius fold and the exact fold pinned by
//! `IVMF_EXACT_INTERVAL`.
//!
//! Everything lives in one `#[test]` because it mutates the process-wide
//! `IVMF_THREADS`, `IVMF_EXACT_INTERVAL` and `IVMF_SPARSE_THRESHOLD`
//! variables: the harness runs test functions concurrently in one
//! process, so the mutation must not straddle functions.

use std::path::PathBuf;

use ivmf_core::pipeline::{run_all, Pipeline};
use ivmf_core::{run_all_sharded, IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, generate_uniform, PowerLawConfig, SyntheticConfig};
use ivmf_interval::{CsrShardedIntervalMatrix, IntervalShard, RowShardedIntervalMatrix};
use ivmf_linalg::streaming::GROUP_ROWS;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivmf_unit_fold_{}_{tag}.ivs", std::process::id()))
}

/// Clears the given variables for the test's duration and restores their
/// previous values on drop (also when an assertion panics).
struct EnvGuard(Vec<(&'static str, Option<String>)>);

impl EnvGuard {
    fn clear(names: &[&'static str]) -> EnvGuard {
        let saved = names.iter().map(|&n| (n, std::env::var(n).ok())).collect();
        for n in names {
            std::env::remove_var(n);
        }
        EnvGuard(saved)
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (name, value) in &self.0 {
            match value {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}

#[test]
fn unit_fold_is_thread_count_invariant_on_every_route() {
    // Auto-snapshots would warm later sessions from earlier ones and skip
    // the fold under test; the sparse cutoff is set per route below.
    let _env = EnvGuard::clear(&[
        ivmf_env::THREADS,
        ivmf_env::EXACT_INTERVAL,
        ivmf_env::SNAPSHOT_DIR,
        ivmf_env::SPARSE_THRESHOLD,
    ]);
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
    let path = tmp_path("csr");
    let mut writer = CsrShardWriter::create(&path, ROWS, csr.cols()).unwrap();
    writer.push_shard(&csr).unwrap();
    writer.finish().unwrap();
    let streamed = || {
        let reader = CsrShardReader::open(&path, STRADDLING_SHARD_ROWS).unwrap();
        Pipeline::new_streaming_csr_send(Box::new(reader), config).unwrap()
    };

    for exact in [false, true] {
        if exact {
            std::env::set_var(ivmf_env::EXACT_INTERVAL, "1");
        } else {
            std::env::remove_var(ivmf_env::EXACT_INTERVAL);
        }
        let flavour = if exact { "exact" } else { "mid-rad" };

        std::env::set_var(ivmf_env::THREADS, "1");
        let cold_dense = run_all(&dense_ext, &config).unwrap();
        let cold_sparse = run_all_sharded(
            &CsrShardedIntervalMatrix::from_csr(&csr_ext, GROUP_ROWS / 2).unwrap(),
            &config,
        )
        .unwrap();
        let mut baseline: Vec<(Vec<IsvdResult>, Vec<u8>)> = Vec::new();

        for threads in ["1", "2", "3"] {
            std::env::set_var(ivmf_env::THREADS, threads);
            let mut runs = vec![
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
                ("sparse streamed", run_and_snapshot(streamed())),
            ];
            // Dense shards cut into units that fold through the sparse
            // accumulator (each unit CSR-compresses its own rows).
            std::env::set_var(ivmf_env::SPARSE_THRESHOLD, "1.0");
            runs.push((
                "dense 3000-row shards, sparse Gram",
                run_and_snapshot(Pipeline::new_sharded(&dense_sharded, config).unwrap()),
            ));
            std::env::remove_var(ivmf_env::SPARSE_THRESHOLD);

            for (i, (route, (results, snapshot))) in runs.into_iter().enumerate() {
                let context = format!("{flavour}, {route}, IVMF_THREADS={threads}");
                if threads == "1" {
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
                &format!("{flavour}, dense append, IVMF_THREADS={threads}"),
            );
            let appended =
                append_then_gram_route(Pipeline::new_sharded(&sparse, config).unwrap(), |s| {
                    s.append_rows(csr_extra.clone()).unwrap()
                });
            assert_bitwise(
                &appended,
                &cold_sparse[2..],
                &GRAM_ROUTE,
                &format!("{flavour}, sparse append, IVMF_THREADS={threads}"),
            );
        }
        // Shard layout and representation stay invisible too.
        assert_bitwise(&baseline[1].0, &baseline[0].0, &all, "dense layouts");
        assert_bitwise(&baseline[3].0, &baseline[2].0, &all, "sparse routes");
        assert_bitwise(&baseline[4].0, &baseline[1].0, &all, "dense vs sparse Gram");
    }
    std::fs::remove_file(&path).ok();
}
