//! End-to-end trajectory bench for the decomposition pipelines: wall-clock
//! medians of ISVD0–ISVD4 (paper default 40×250 synthetic config, rank 20),
//! the shared-stage batched driver against the sequential five-algorithm
//! path (`batched_vs_sequential`), the streamed sharded Gram against the
//! dense path (`sharded_gram`), and the incremental `Pipeline::append_rows`
//! refresh against a cold recompute (`append_rows`, whose speedup is the
//! `append_vs_cold_speedup` field of the JSON), a warm restart from an
//! on-disk checkpoint against the cold five-algorithm run
//! (`snapshot_restore`, whose ratio is the
//! `snapshot_restore_vs_cold_speedup` field), the sparse CSR Gram's
//! linear-in-`n` scaling at ~100 stored entries per row (`sparse_scaling`)
//! and its win over the dense route at ~1% density
//! (`sparse_vs_dense_gram`, whose ratio is the
//! `sparse_vs_dense_gram_speedup` field), plus the `sym_eigen` kernel
//! that backs every eigen-route decomposition and the certified top-k
//! solver against the full-spectrum oracle at pipeline-relevant rank
//! (`sym_eigen_topk_vs_full`, whose ratio is the
//! `sym_eigen_topk_vs_full_speedup` field). A final pass re-runs the
//! full pipeline at 560×256 rank 20 and records per-stage medians of
//! ISVD2's non-cache-hit stage trace (`stage_trace_m256_medians_ns`,
//! slowest stage in `stage_trace_m256_top`) so stage-level regressions —
//! e.g. the eigen stages overtaking the Gram build — show up in the
//! committed report. Results go to `BENCH_isvd.json` at the repository
//! root (override with `IVMF_BENCH_ISVD_OUT`).
//!
//! Unlike `linalg_kernels` — which tracks isolated kernels against each
//! other — this bench tracks the *algorithm-level* trajectory across PRs:
//! baselines are the medians recorded in the **committed** `BENCH_isvd.json`
//! (parsed at startup, before this run overwrites it), so every PR's report
//! shows its movement relative to the previous committed run and the
//! trajectory accumulates instead of comparing against frozen constants.
//! Both runs pin `IVMF_THREADS=1` unless the caller exports a count,
//! keeping the ratios apples-to-apples. Set `IVMF_BENCH_SMOKE=1` to run
//! every benchmark with a single sample (CI bitrot guard; smoke medians are
//! noise, so refresh the committed file only from a non-smoke run).

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use ivmf_core::isvd::isvd;
use ivmf_core::pipeline::{run_all, Pipeline};
use ivmf_core::{IsvdAlgorithm, IsvdConfig};
use ivmf_data::synthetic::{generate_power_law, generate_uniform, PowerLawConfig, SyntheticConfig};
use ivmf_interval::{CsrShardedIntervalMatrix, RowShardedIntervalMatrix, StreamingIntervalGram};
use ivmf_linalg::eigen_sym::sym_eigen;
use ivmf_linalg::random::{symmetric_matrix, uniform_matrix};
use ivmf_linalg::{sym_eigen_topk_with, TopkOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ivmf_bench::{
    bench_sample_count as sample_count, bench_smoke_mode as smoke_mode, read_bench_medians,
};

/// The committed report this run compares against (always the repository
/// root copy, independent of any `IVMF_BENCH_ISVD_OUT` override for the
/// output).
fn committed_json_path() -> String {
    format!(
        "{}/../../BENCH_isvd.json",
        env!("CARGO_MANIFEST_DIR") // crates/bench -> repository root
    )
}

fn bench_isvd_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("isvd_pipeline");
    group.sample_size(sample_count());
    let config = SyntheticConfig::paper_default();
    let rank = config.default_rank();
    let mut rng = SmallRng::seed_from_u64(1);
    let m = generate_uniform(&config, &mut rng);
    for alg in IsvdAlgorithm::all() {
        let isvd_config = IsvdConfig::new(rank).with_algorithm(alg);
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &m, |b, m| {
            b.iter(|| isvd(m, &isvd_config).unwrap())
        });
    }
    group.finish();
}

/// The shared-stage batched driver against the sequential path: both
/// evaluate all five ISVD algorithms on the paper-default matrix (bitwise
/// identical outputs); the batched run computes the interval Gram, the
/// bound eigendecompositions, the ILSA alignment and the aligned solve at
/// most once across the whole roster.
fn bench_batched_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_vs_sequential");
    group.sample_size(sample_count());
    let config = SyntheticConfig::paper_default();
    let rank = config.default_rank();
    let mut rng = SmallRng::seed_from_u64(2);
    let m = generate_uniform(&config, &mut rng);
    let isvd_config = IsvdConfig::new(rank);
    group.bench_with_input(BenchmarkId::from_parameter("sequential"), &m, |b, m| {
        b.iter(|| {
            for alg in IsvdAlgorithm::all() {
                isvd(m, &isvd_config.with_algorithm(alg)).unwrap();
            }
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &m, |b, m| {
        b.iter(|| run_all(m, &isvd_config).unwrap())
    });
    group.finish();
}

/// Streamed interval Gram over row shards against the dense one-block
/// stream, at a taller-than-paper row count (the scaling direction the
/// sharded storage exists for). The outputs are bitwise identical; the
/// bench tracks the sharding overhead (chunk re-alignment buffering).
fn bench_sharded_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_gram");
    group.sample_size(sample_count());
    let config = SyntheticConfig::paper_default().with_shape(480, 250);
    let mut rng = SmallRng::seed_from_u64(4);
    let m = generate_uniform(&config, &mut rng);
    group.bench_with_input(BenchmarkId::from_parameter("dense_480x250"), &m, |b, m| {
        b.iter(|| m.interval_gram_streamed().unwrap())
    });
    let sharded = RowShardedIntervalMatrix::from_dense(&m, 60).unwrap(); // 8 shards
    group.bench_with_input(
        BenchmarkId::from_parameter("sharded_480x250_x8"),
        &sharded,
        |b, s| b.iter(|| s.interval_gram_streamed().unwrap()),
    );
    group.finish();
}

/// Incremental row-append Gram refresh against a cold recompute: the
/// `append_rows` serving scenario. The cold path builds a fresh session
/// over base+delta and computes the Gram from scratch (`O(n·m²)`); the
/// incremental path appends the delta to a warmed session, folding only
/// the new rows' contributions (`O(Δn·m²)`). Outputs are bitwise
/// identical (asserted by the workspace's streaming test suite).
fn bench_append_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("append_rows");
    group.sample_size(sample_count());
    let config = SyntheticConfig::paper_default().with_shape(480, 250);
    let rank = config.default_rank();
    let mut rng = SmallRng::seed_from_u64(5);
    let base = generate_uniform(&config, &mut rng);
    let delta_config = SyntheticConfig::paper_default().with_shape(8, 250);
    let delta = generate_uniform(&delta_config, &mut rng);
    let base_sharded = RowShardedIntervalMatrix::from_dense(&base, 30).unwrap();

    group.bench_with_input(
        BenchmarkId::from_parameter("cold_recompute"),
        &(&base_sharded, &delta),
        |b, (base_sharded, delta)| {
            b.iter(|| {
                let mut combined = (*base_sharded).clone();
                combined.append_rows((*delta).clone()).unwrap();
                let mut session = Pipeline::from_shards(combined, IsvdConfig::new(rank)).unwrap();
                session.interval_gram().unwrap()
            })
        },
    );

    // Warmed session: the Gram accumulator is retained, so each append
    // folds only the delta. The matrix grows by Δ rows per iteration —
    // which is exactly the serving workload, and the incremental cost is
    // row-count-independent.
    let mut warmed = Pipeline::from_shards(base_sharded.clone(), IsvdConfig::new(rank)).unwrap();
    warmed.interval_gram().unwrap();
    group.bench_with_input(
        BenchmarkId::from_parameter("incremental"),
        &delta,
        |b, delta| {
            b.iter(|| {
                warmed.append_rows(delta.clone()).unwrap();
                warmed.interval_gram().unwrap()
            })
        },
    );
    group.finish();
}

/// Warm restart from an on-disk snapshot against a cold recompute: the
/// crash-recovery serving scenario. The cold path builds a fresh session
/// and runs all five algorithms from scratch; the restored path builds an
/// equally fresh session, loads the checkpoint written by a previous
/// "process" (`Pipeline::restore_from`, every entry hash-validated) and
/// then runs all five algorithms as pure cache hits — bitwise identical
/// outputs, asserted by the snapshot-recovery suite. The ratio becomes
/// the `snapshot_restore_vs_cold_speedup` JSON field.
fn bench_snapshot_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_restore");
    group.sample_size(sample_count());
    let config = SyntheticConfig::paper_default().with_shape(480, 250);
    let rank = config.default_rank();
    let mut rng = SmallRng::seed_from_u64(10);
    let m = generate_uniform(&config, &mut rng);
    let sharded = RowShardedIntervalMatrix::from_dense(&m, 30).unwrap();
    let isvd_config = IsvdConfig::new(rank);

    // The checkpoint a killed process would have left behind.
    let snap_path =
        std::env::temp_dir().join(format!("ivmf_bench_snapshot_{}.snap", std::process::id()));
    {
        let mut warmed = Pipeline::from_shards(sharded.clone(), isvd_config).unwrap();
        warmed.run_all().unwrap();
        warmed.snapshot_to(&snap_path).unwrap();
    }

    group.bench_with_input(
        BenchmarkId::from_parameter("cold"),
        &sharded,
        |b, sharded| {
            b.iter(|| {
                let mut session = Pipeline::from_shards((*sharded).clone(), isvd_config).unwrap();
                session.run_all().unwrap()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("restored"),
        &(&sharded, &snap_path),
        |b, (sharded, snap_path)| {
            b.iter(|| {
                let mut session = Pipeline::from_shards((*sharded).clone(), isvd_config).unwrap();
                let report = session.restore_from(snap_path).unwrap();
                assert!(report.checksum_ok && report.restored > 0);
                session.run_all().unwrap()
            })
        },
    );
    group.finish();
    std::fs::remove_file(&snap_path).ok();
}

fn sparse_interval_gram(m: &CsrShardedIntervalMatrix) {
    let mut acc = StreamingIntervalGram::new_csr(m.rows(), m.cols());
    for shard in m.shards() {
        acc.push_csr_shard(shard).unwrap();
    }
    acc.finish().unwrap();
}

/// Sparse streamed interval Gram at rating-matrix shapes: row count grows
/// 4x per step at a fixed ~100 stored entries per row, so the per-row work
/// is constant and the trajectory shows whether the sparse route scales
/// linearly in `n` (the property that makes million-user matrices
/// feasible; the equivalent dense Gram would grow with `n·m²`, independent
/// of sparsity).
fn bench_sparse_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_scaling");
    // Each iteration folds n·(nnz/row)² products; cap the sample count so
    // the tallest size keeps the full bench run laptop-friendly.
    group.sample_size(if smoke_mode() { 1 } else { 3 });
    let (sizes, nnz_per_row): (&[usize], usize) = if smoke_mode() {
        (&[2_000], 20)
    } else {
        (&[10_000, 40_000, 160_000], 100)
    };
    let cols = 1024;
    for &n in sizes {
        let mut rng = SmallRng::seed_from_u64(6 + n as u64);
        let csr = generate_power_law(
            &PowerLawConfig::ratings_like(n, cols).with_nnz_per_row(nnz_per_row),
            &mut rng,
        );
        let sharded = CsrShardedIntervalMatrix::from_csr(&csr, 4096).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &sharded, |b, s| {
            b.iter(|| sparse_interval_gram(s))
        });
    }
    group.finish();
}

/// Sparse against dense interval Gram on the same ~1%-density matrix
/// (bitwise-identical outputs). The ratio is the
/// `sparse_vs_dense_gram_speedup` field of the JSON — the sparse route
/// folds only the stored entries, so at density `d` the ideal speedup is
/// `1/d` on the multiply count.
fn bench_sparse_vs_dense_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense_gram");
    group.sample_size(sample_count());
    let (n, cols, nnz_per_row) = if smoke_mode() {
        (512, 256, 2)
    } else {
        (2048, 512, 5)
    };
    let mut rng = SmallRng::seed_from_u64(7);
    let csr = generate_power_law(
        &PowerLawConfig::ratings_like(n, cols).with_nnz_per_row(nnz_per_row),
        &mut rng,
    );
    let dense = csr.to_dense();
    let sharded = CsrShardedIntervalMatrix::from_csr(&csr, 512).unwrap();
    group.bench_with_input(BenchmarkId::from_parameter("dense"), &dense, |b, m| {
        b.iter(|| m.interval_gram_streamed().unwrap())
    });
    group.bench_with_input(BenchmarkId::from_parameter("sparse"), &sharded, |b, s| {
        b.iter(|| sparse_interval_gram(s))
    });
    group.finish();
}

fn bench_sym_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eigen");
    group.sample_size(sample_count());
    let sizes: &[usize] = if smoke_mode() { &[128] } else { &[128, 256] };
    for &n in sizes {
        let mut rng = SmallRng::seed_from_u64(3 + n as u64);
        let a = symmetric_matrix(&mut rng, n, -2.0, 2.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| sym_eigen(a).unwrap())
        });
    }
    group.finish();
}

/// The certified top-k solver against the full-spectrum oracle, on the
/// kind of matrix the pipeline actually hands it: the Gram of a wide
/// factor at the motivating m=256 size, truncated to the paper rank
/// r=20. The top-k path is pinned on via explicit [`TopkOptions`] (not
/// the env knob) so the measurement is stable under every CI pass; the
/// ratio becomes the `sym_eigen_topk_vs_full_speedup` JSON field.
fn bench_sym_eigen_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eigen_topk_vs_full");
    group.sample_size(sample_count());
    let (rows, n, k) = if smoke_mode() {
        (128, 96, 8)
    } else {
        (320, 256, 20)
    };
    let mut rng = SmallRng::seed_from_u64(8);
    let a = uniform_matrix(&mut rng, rows, n, -1.0, 1.0).gram();
    let opts = TopkOptions::default().with_force(true);
    // The speedup claim only holds if the iteration certifies inside its
    // basis cap; a fallback would silently measure dense + Lanczos cost.
    let (_, report) = ivmf_linalg::sym_eigen_topk_report(&a, k, &opts).unwrap();
    assert!(
        !report.used_fallback,
        "top-k bench case fell back to the dense solver — tune the basis cap"
    );
    group.bench_with_input(BenchmarkId::from_parameter("full"), &a, |b, a| {
        b.iter(|| sym_eigen(a).unwrap())
    });
    group.bench_with_input(BenchmarkId::from_parameter("topk"), &a, |b, a| {
        b.iter(|| sym_eigen_topk_with(a, k, &opts).unwrap())
    });
    group.finish();
}

/// Per-stage median wall-clock of ISVD2's stage trace at the motivating
/// m=256 Gram width (560×256 input — a taller-than-paper users×items
/// shape, the same scaling direction as the sharded-gram and append-rows
/// groups — rank 20, fresh pipeline per rep), sorted slowest-first. ISVD2 is the first Gram-route algorithm in
/// `run_all`, so its trace holds the cold IntervalGram / BoundEigenLo /
/// BoundEigenHi timings; cache hits are excluded. This documents the
/// pipeline's bottleneck ordering — with the certified top-k eigensolver
/// in place, the eigen stages sit *below* the interval Gram instead of
/// dominating the trace — and the `stage_trace_m256_top` JSON field
/// records which stage currently tops it.
fn stage_trace_m256() -> Vec<(String, u128)> {
    let reps = if smoke_mode() { 1 } else { 5 };
    let mut rng = SmallRng::seed_from_u64(9);
    let m = generate_uniform(
        &SyntheticConfig::paper_default().with_shape(560, 256),
        &mut rng,
    );
    let cfg = IsvdConfig::new(20);
    let mut samples: std::collections::BTreeMap<String, Vec<u128>> = Default::default();
    for _ in 0..reps {
        let results = run_all(&m, &cfg).unwrap();
        for ev in &results[2].stages {
            if !ev.cache_hit {
                samples
                    .entry(format!("{:?}", ev.stage))
                    .or_default()
                    .push(ev.duration.as_nanos());
            }
        }
    }
    let mut medians: Vec<(String, u128)> = samples
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            let m = v[v.len() / 2];
            (name, m)
        })
        .collect();
    medians.sort_by_key(|m| std::cmp::Reverse(m.1));
    medians
}

fn median_of(results: &[(String, Duration)], name: &str) -> Option<f64> {
    results
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, d)| d.as_secs_f64())
}

/// Median-over-median speedup of the shared-stage batched driver against
/// five sequential `isvd` calls, if both measurements were recorded.
fn batched_speedup(results: &[(String, Duration)]) -> Option<f64> {
    let sequential = median_of(results, "batched_vs_sequential/sequential")?;
    let batched = median_of(results, "batched_vs_sequential/batched")?;
    (batched > 0.0).then(|| sequential / batched)
}

/// Median-over-median speedup of the incremental append refresh against
/// the cold recompute.
fn append_speedup(results: &[(String, Duration)]) -> Option<f64> {
    let cold = median_of(results, "append_rows/cold_recompute")?;
    let incremental = median_of(results, "append_rows/incremental")?;
    (incremental > 0.0).then(|| cold / incremental)
}

/// Median-over-median speedup of a warm restart (snapshot restore + all
/// five algorithms as cache hits) against the cold five-algorithm run.
fn snapshot_restore_speedup(results: &[(String, Duration)]) -> Option<f64> {
    let cold = median_of(results, "snapshot_restore/cold")?;
    let restored = median_of(results, "snapshot_restore/restored")?;
    (restored > 0.0).then(|| cold / restored)
}

/// Median-over-median speedup of the sparse interval Gram against the
/// dense route on the same ~1%-density matrix.
fn sparse_gram_speedup(results: &[(String, Duration)]) -> Option<f64> {
    let dense = median_of(results, "sparse_vs_dense_gram/dense")?;
    let sparse = median_of(results, "sparse_vs_dense_gram/sparse")?;
    (sparse > 0.0).then(|| dense / sparse)
}

/// Median-over-median speedup of the certified top-k eigensolver against
/// the full-spectrum dense solver at the motivating (n=256, k=20) size.
fn topk_eigen_speedup(results: &[(String, Duration)]) -> Option<f64> {
    let full = median_of(results, "sym_eigen_topk_vs_full/full")?;
    let topk = median_of(results, "sym_eigen_topk_vs_full/topk")?;
    (topk > 0.0).then(|| full / topk)
}

fn emit_json(
    results: &[(String, Duration)],
    baselines: &[(String, u128)],
    stage_trace: &[(String, u128)],
) -> std::io::Result<()> {
    let out_path = std::env::var("IVMF_BENCH_ISVD_OUT").unwrap_or_else(|_| committed_json_path());
    let baseline_of = |name: &str| {
        baselines
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ns)| ns)
            .filter(|&ns| ns > 0)
    };
    let mut json = String::from("{\n  \"bench\": \"isvd_pipeline\",\n  \"results\": [\n");
    for (i, (name, median)) in results.iter().enumerate() {
        let ns = median.as_nanos();
        match baseline_of(name) {
            Some(base) => {
                let speedup = base as f64 / ns.max(1) as f64;
                // A regression past 10% of the committed baseline should be
                // impossible to miss in the run log — the JSON alone is easy
                // to skim past when eyeballing a PR's bench output.
                if speedup < 0.9 && !smoke_mode() {
                    eprintln!(
                        "WARNING: benchmark regression: {name} at {speedup:.3}x of the \
                         committed baseline (below the 0.9x alert threshold)"
                    );
                }
                json.push_str(&format!(
                    "    {{\"name\": \"{name}\", \"median_ns\": {ns}, \
                     \"baseline_ns\": {base}, \"speedup_vs_baseline\": {speedup:.3}}}{}\n",
                    if i + 1 < results.len() { "," } else { "" }
                ))
            }
            None => json.push_str(&format!(
                "    {{\"name\": \"{name}\", \"median_ns\": {ns}}}{}\n",
                if i + 1 < results.len() { "," } else { "" }
            )),
        }
    }
    json.push_str("  ],\n");
    if let Some(speedup) = batched_speedup(results) {
        json.push_str(&format!(
            "  \"batched_vs_sequential_speedup\": {speedup:.3},\n"
        ));
    }
    if let Some(speedup) = append_speedup(results) {
        json.push_str(&format!("  \"append_vs_cold_speedup\": {speedup:.3},\n"));
    }
    if let Some(speedup) = snapshot_restore_speedup(results) {
        json.push_str(&format!(
            "  \"snapshot_restore_vs_cold_speedup\": {speedup:.3},\n"
        ));
    }
    if let Some(speedup) = sparse_gram_speedup(results) {
        json.push_str(&format!(
            "  \"sparse_vs_dense_gram_speedup\": {speedup:.3},\n"
        ));
    }
    if let Some(speedup) = topk_eigen_speedup(results) {
        json.push_str(&format!(
            "  \"sym_eigen_topk_vs_full_speedup\": {speedup:.3},\n"
        ));
    }
    if let Some((top, _)) = stage_trace.first() {
        json.push_str("  \"stage_trace_m256_medians_ns\": {\n");
        for (i, (name, ns)) in stage_trace.iter().enumerate() {
            json.push_str(&format!(
                "    \"{name}\": {ns}{}\n",
                if i + 1 < stage_trace.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        json.push_str(&format!("  \"stage_trace_m256_top\": \"{top}\",\n"));
    }
    json.push_str(&format!(
        "  \"smoke\": {},\n  \"threads\": {}\n}}\n",
        smoke_mode(),
        ivmf_par::configured_threads()
    ));
    // Atomic commit: a benchmark run killed mid-write must never leave a
    // torn half-report where the committed baselines used to be.
    ivmf_data::atomic::atomic_write_bytes(&out_path, json)?;
    eprintln!("wrote ISVD pipeline benchmark results to {out_path}");
    Ok(())
}

fn main() {
    // The committed baselines were recorded at IVMF_THREADS=1; pin the
    // pool to the same configuration (unless the caller exports a count
    // explicitly) so speedup_vs_baseline stays apples-to-apples.
    if std::env::var(ivmf_par::THREADS_ENV).is_err() {
        std::env::set_var(ivmf_par::THREADS_ENV, "1");
    }
    // Cold measurements must stay cold: the auto-snapshot knob would
    // otherwise warm every "fresh" session from the previous iteration's
    // save-on-drop. The snapshot_restore group measures restores
    // explicitly through its own checkpoint file.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
    // Read the committed medians *before* running (and overwriting them).
    let baselines = read_bench_medians(&committed_json_path());

    let mut criterion = Criterion::default();
    bench_isvd_pipeline(&mut criterion);
    bench_batched_vs_sequential(&mut criterion);
    bench_sharded_gram(&mut criterion);
    bench_append_rows(&mut criterion);
    bench_snapshot_restore(&mut criterion);
    bench_sparse_scaling(&mut criterion);
    bench_sparse_vs_dense_gram(&mut criterion);
    bench_sym_eigen(&mut criterion);
    bench_sym_eigen_topk(&mut criterion);

    let results = criterion::recorded_measurements();
    for (name, median) in &results {
        if let Some(&(_, base)) = baselines.iter().find(|(n, _)| n == name) {
            if base > 0 {
                println!(
                    "{name}: {:.2}x vs committed baseline",
                    base as f64 / median.as_nanos().max(1) as f64
                );
            }
        }
    }
    if let Some(speedup) = batched_speedup(&results) {
        println!("batched_vs_sequential: {speedup:.2}x (shared-stage cache)");
    }
    if let Some(speedup) = append_speedup(&results) {
        println!("append_rows: {speedup:.2}x incremental vs cold recompute");
    }
    if let Some(speedup) = snapshot_restore_speedup(&results) {
        println!("snapshot_restore: {speedup:.2}x warm restart vs cold recompute");
    }
    if let Some(speedup) = sparse_gram_speedup(&results) {
        println!("sparse_vs_dense_gram: {speedup:.2}x sparse vs dense at ~1% density");
    }
    if let Some(speedup) = topk_eigen_speedup(&results) {
        println!("sym_eigen_topk_vs_full: {speedup:.2}x top-k vs full spectrum");
    }
    let stage_trace = stage_trace_m256();
    if let Some((top, ns)) = stage_trace.first() {
        println!(
            "stage_trace m=256: top stage {top} ({:.2}ms median)",
            *ns as f64 / 1e6
        );
    }
    if let Err(e) = emit_json(&results, &baselines, &stage_trace) {
        eprintln!("failed to write BENCH_isvd.json: {e}");
    }
}
