//! Acceptance suite for row-sharded storage, streaming Gram accumulation
//! and incremental row-append:
//!
//! * a matrix streamed in ≥ 4 shards decomposes via `run_all_batch_sharded`
//!   **bitwise identical** to the dense `run_all_batch` path for all five
//!   algorithms (and every decomposition target),
//! * shard layout and `IVMF_THREADS` never change a single bit of the
//!   streamed interval Gram (property-tested across random shard sizes,
//!   including 1-row shards and shard == n),
//! * `Pipeline::append_rows` equals a cold recompute bitwise while the
//!   cache accounting shows the Gram was *reused* (only the appended
//!   shards' contributions computed),
//! * a matrix loaded lazily from disk through the chunked `ivmf-data`
//!   readers decomposes end to end, identical to the in-memory path.
//!
//! Sizes deliberately straddle `ivmf_linalg::STREAM_CHUNK_ROWS` so the
//! chunk re-alignment machinery (not just the single-chunk fast case) is
//! exercised.

use ivmf_core::pipeline::{run_all, run_all_batch, run_all_batch_sharded, Pipeline, StageId};
use ivmf_core::{DecompositionTarget, IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::stream::{stream_interval_gram, write_interval_matrix, ShardReader};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::STREAM_CHUNK_ROWS;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn synthetic(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_uniform(
        &SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    )
}

fn assert_results_bitwise(a: &[IsvdResult; 5], b: &[IsvdResult; 5], context: &str) {
    for ((ra, rb), alg) in a.iter().zip(b.iter()).zip(IsvdAlgorithm::all()) {
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

#[test]
fn sharded_batch_matches_dense_batch_bitwise_for_all_algorithms() {
    // Two matrices, one taller than a streaming chunk; each split into
    // >= 4 shards. The batched sharded driver must agree with the batched
    // dense driver bit for bit across all five algorithms.
    let dense: Vec<IntervalMatrix> = vec![
        synthetic(900, STREAM_CHUNK_ROWS + 22, 12),
        synthetic(901, 30, 9),
    ];
    let sharded: Vec<RowShardedIntervalMatrix> = dense
        .iter()
        .map(|m| {
            let s = RowShardedIntervalMatrix::from_dense(m, m.rows().div_ceil(5)).unwrap();
            assert!(
                s.num_shards() >= 4,
                "want >= 4 shards, got {}",
                s.num_shards()
            );
            s
        })
        .collect();
    let config = IsvdConfig::new(5);
    let dense_results = run_all_batch(&dense, &config).unwrap();
    let sharded_results = run_all_batch_sharded(&sharded, &config).unwrap();
    for (i, (d, s)) in dense_results.iter().zip(&sharded_results).enumerate() {
        assert_results_bitwise(s, d, &format!("matrix {i}"));
    }
}

#[test]
fn sharded_run_matches_dense_for_every_target() {
    let m = synthetic(902, 26, 10);
    let sharded = RowShardedIntervalMatrix::from_dense(&m, 6).unwrap();
    for target in DecompositionTarget::all() {
        let config = IsvdConfig::new(4).with_target(target);
        let dense = run_all(&m, &config).unwrap();
        let results = ivmf_core::run_all_sharded(&sharded, &config).unwrap();
        assert_results_bitwise(&results, &dense, &format!("target {target}"));
    }
}

#[test]
fn streamed_gram_is_bitwise_invariant_across_shard_sizes_and_thread_counts() {
    // Property test over random shard sizes (always including the 1-row
    // and whole-matrix edge cases) and two thread counts. Env mutation is
    // contained in this one test; concurrent tests only *read* the
    // variable through kernels that are bitwise thread-count-invariant.
    let mut rng = SmallRng::seed_from_u64(903);
    let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
    for case in 0..8 {
        let n = rng.gen_range(1usize..(STREAM_CHUNK_ROWS * 2));
        let cols = rng.gen_range(1usize..24);
        let m = synthetic(1000 + case, n, cols);
        let reference = m.interval_gram_streamed().unwrap();
        let mut shard_sizes = vec![1usize, n];
        shard_sizes.push(rng.gen_range(1..=n));
        for shard_rows in shard_sizes {
            let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            for threads in ["1", "4"] {
                std::env::set_var(ivmf_par::THREADS_ENV, threads);
                let streamed = sharded.interval_gram_streamed().unwrap();
                assert_eq!(
                    streamed, reference,
                    "gram diverged: n={n} cols={cols} shard_rows={shard_rows} threads={threads}"
                );
            }
        }
    }
    match prev {
        Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
        None => std::env::remove_var(ivmf_par::THREADS_ENV),
    }
}

#[test]
fn append_rows_across_chunk_boundaries_matches_cold_and_reuses_gram() {
    // Base taller than one chunk so appends land in a non-trivial
    // accumulator state; three successive appends.
    let base = synthetic(905, STREAM_CHUNK_ROWS + 10, 14);
    let config = IsvdConfig::new(5);
    let mut session = Pipeline::from_shards(
        RowShardedIntervalMatrix::from_dense(&base, 40).unwrap(),
        config,
    )
    .unwrap();
    session.run_all().unwrap();

    let mut combined = RowShardedIntervalMatrix::from_dense(&base, 40).unwrap();
    for step in 0..3 {
        let delta = synthetic(906 + step, 9, 14);
        session.append_rows(delta.clone()).unwrap();
        combined.append_rows(delta).unwrap();

        let incremental = session.run_all().unwrap();
        let cold = ivmf_core::run_all_sharded(&combined, &config).unwrap();
        assert_results_bitwise(&incremental, &cold, &format!("append step {step}"));

        // The Gram must be served from the seeded cache entry — the
        // accounting proof that only the appended contribution was folded.
        let gram_event = incremental[2]
            .stages
            .iter()
            .find(|e| e.stage == StageId::IntervalGram)
            .unwrap();
        assert!(gram_event.cache_hit, "step {step}: Gram was recomputed");
        // Downstream eigen stages were invalidated (computed fresh by the
        // first algorithm that needs them in this run_all).
        let eigen_event = incremental[2]
            .stages
            .iter()
            .find(|e| e.stage == StageId::BoundEigenLo)
            .unwrap();
        assert!(
            !eigen_event.cache_hit,
            "step {step}: stale eigen survived the append"
        );
    }
}

#[test]
fn lazy_disk_loader_decomposes_end_to_end_identically_to_memory() {
    let m = synthetic(910, STREAM_CHUNK_ROWS + 5, 11);
    let path =
        std::env::temp_dir().join(format!("ivmf_streaming_shards_{}.txt", std::process::id()));
    write_interval_matrix(&path, &m).unwrap();

    let config = IsvdConfig::new(4);
    let dense = run_all(&m, &config).unwrap();
    let reader = ShardReader::open(&path, 13).unwrap();
    let mut session = Pipeline::new_streaming(Box::new(reader), config).unwrap();
    let streamed = session.run_all().unwrap();
    assert_results_bitwise(&streamed, &dense, "disk loader");

    // The one-pass out-of-core Gram agrees with the session's Gram stage.
    let gram = stream_interval_gram::<IntervalMatrix>(&path, 13).unwrap();
    assert_eq!(gram, *session.interval_gram().unwrap());
    std::fs::remove_file(&path).ok();
}
