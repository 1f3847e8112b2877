//! Bitwise-equivalence and cache-accounting suite for the staged
//! decomposition pipeline: a batched `run_all` (shared-stage cache on) must
//! produce *exactly* the same factorizations as five standalone `isvd`
//! calls — the cache changes when a stage runs, never its arithmetic — and
//! the per-run accounting must report the sharing truthfully. Every way to
//! open a session, dense or CSR, must reproduce pinned content ids and
//! factor bits, and appends must reject bad bounds before changing state.

#[path = "support/entry_kinds.rs"]
mod entry_kinds;
#[path = "support/temp_path.rs"]
mod temp_path;

use entry_kinds::{entry_kind_fixture, random_interval_matrix};
use ivmf_core::isvd::isvd;
use ivmf_core::pipeline::{run_all, run_all_batch, DecompPlan, Pipeline, StageCache, StageId};
use ivmf_core::{DecompositionTarget, IntervalSvd, IsvdAlgorithm, IsvdConfig, IvmfError};
use ivmf_data::stream::{write_csr_matrix, write_interval_matrix, CsrShardReader, ShardReader};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{
    CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix, IntervalShard,
    RowShardedIntervalMatrix, ShardSource, ShardedIntervalMatrix,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use temp_path::TempPath;

/// Asserts two factorizations are bitwise identical (not approximately —
/// every f64 bit pattern must match).
fn assert_bitwise_equal(a: &IntervalSvd, b: &IntervalSvd, context: &str) {
    assert_eq!(a.target, b.target, "{context}: target differs");
    assert!(
        !a.u.has_non_finite() && !a.v.has_non_finite(),
        "{context}: non-finite factors"
    );
    assert_eq!(a.u, b.u, "{context}: U factor differs");
    assert_eq!(a.v, b.v, "{context}: V factor differs");
    assert_eq!(a.sigma, b.sigma, "{context}: core differs");
}

#[test]
fn run_all_matches_standalone_isvd_bitwise_for_every_algorithm_and_target() {
    let inputs = [
        random_interval_matrix(501, 14, 9, 1.5),
        random_interval_matrix(502, 9, 14, 0.5),
    ];
    for (mi, m) in inputs.iter().enumerate() {
        for target in DecompositionTarget::all() {
            let config = IsvdConfig::new(5).with_target(target);
            let batched = run_all(m, &config).expect("batched run");
            for (result, alg) in batched.iter().zip(IsvdAlgorithm::all()) {
                let standalone = isvd(m, &config.with_algorithm(alg)).expect("standalone run");
                assert_bitwise_equal(
                    &result.factors,
                    &standalone.factors,
                    &format!("matrix {mi}, {alg}, {target}"),
                );
            }
        }
    }
}

#[test]
fn run_all_matches_standalone_on_paper_shaped_synthetic_data() {
    // A paper-shaped (wide) synthetic matrix large enough to take the
    // midpoint–radius fast path in the Gram stage — the cache must be
    // transparent there too.
    let mut rng = SmallRng::seed_from_u64(7);
    let m = generate_uniform(
        &SyntheticConfig::paper_default().with_shape(30, 80),
        &mut rng,
    );
    let config = IsvdConfig::new(12);
    let batched = run_all(&m, &config).expect("batched run");
    for (result, alg) in batched.iter().zip(IsvdAlgorithm::all()) {
        let standalone = isvd(&m, &config.with_algorithm(alg)).expect("standalone run");
        assert_bitwise_equal(&result.factors, &standalone.factors, alg.name());
    }
}

#[test]
fn run_all_batch_matches_standalone_across_matrices() {
    let matrices: Vec<IntervalMatrix> = (0..3)
        .map(|i| random_interval_matrix(600 + i, 10, 7, 1.0))
        .collect();
    let config = IsvdConfig::new(4);
    let batch = run_all_batch(&matrices, &config).expect("batch run");
    assert_eq!(batch.len(), matrices.len());
    for (per_matrix, m) in batch.iter().zip(&matrices) {
        for (result, alg) in per_matrix.iter().zip(IsvdAlgorithm::all()) {
            let standalone = isvd(m, &config.with_algorithm(alg)).expect("standalone");
            assert_bitwise_equal(&result.factors, &standalone.factors, alg.name());
        }
    }
}

#[test]
fn batched_run_computes_gram_and_bound_eigens_at_most_once() {
    let m = random_interval_matrix(700, 12, 8, 1.0);
    let results = run_all(&m, &IsvdConfig::new(4)).expect("batched run");
    for stage in [
        StageId::IntervalGram,
        StageId::BoundEigenLo,
        StageId::BoundEigenHi,
        StageId::GramAlign,
        StageId::AlignedSolve,
    ] {
        let computes = results
            .iter()
            .flat_map(|r| r.stages.iter())
            .filter(|e| e.stage == stage && !e.cache_hit)
            .count();
        assert_eq!(computes, 1, "stage {stage} computed more than once");
    }
}

#[test]
fn second_algorithm_sharing_the_gram_reports_a_hit() {
    let m = random_interval_matrix(701, 10, 6, 1.0);
    let mut pipeline = Pipeline::new(&m, IsvdConfig::new(4)).expect("pipeline");

    // ISVD2 computes the Gram — all misses, no hits.
    let r2 = pipeline.run(IsvdAlgorithm::Isvd2).expect("ISVD2");
    assert_eq!(r2.timings.cache_hits, 0);
    assert_eq!(
        r2.timings.cache_misses as usize,
        DecompPlan::for_algorithm(IsvdAlgorithm::Isvd2).stages.len()
    );

    // ISVD3 shares Gram + both eigens + the ILSA alignment: 4 hits, and
    // the only computed stage is its aligned solve.
    let r3 = pipeline.run(IsvdAlgorithm::Isvd3).expect("ISVD3");
    assert_eq!(r3.timings.cache_hits, 4);
    assert_eq!(r3.timings.cache_misses, 1);
    let gram_event = r3
        .stages
        .iter()
        .find(|e| e.stage == StageId::IntervalGram)
        .expect("gram event");
    assert!(gram_event.cache_hit, "ISVD3 must reuse ISVD2's Gram");
}

#[test]
fn changed_config_fingerprint_reports_a_miss() {
    let m = random_interval_matrix(702, 10, 6, 1.0);
    let mut pipeline = Pipeline::new(&m, IsvdConfig::new(4)).expect("pipeline");
    pipeline.run(IsvdAlgorithm::Isvd2).expect("warm the cache");
    let cache = pipeline.into_cache();
    let warm_misses = cache.misses();

    // Same matrix, different rank → different per-stage fingerprint for
    // every rank-dependent stage, which all miss and recompute; only the
    // rank-independent interval Gram is allowed to survive the change.
    let mut changed =
        Pipeline::with_cache(&m, IsvdConfig::new(3), cache).expect("changed-config pipeline");
    let r = changed.run(IsvdAlgorithm::Isvd2).expect("ISVD2 at rank 3");
    assert_eq!(
        r.timings.cache_hits, 1,
        "only the rank-independent Gram may leak across configs"
    );
    assert_eq!(r.timings.cache_misses, 4);
    for event in &r.stages {
        assert_eq!(
            event.cache_hit,
            event.stage == StageId::IntervalGram,
            "unexpected cache behaviour for {}",
            event.stage
        );
    }
    assert_eq!(
        changed.cache().misses(),
        warm_misses + u64::from(r.timings.cache_misses)
    );

    // A changed matcher misses the ILSA stage while the matcher-free
    // stages survive.
    let cache = changed.into_cache();
    let greedy = IsvdConfig::new(3).with_matcher(ivmf_align::Matcher::Greedy);
    let mut rematched = Pipeline::with_cache(&m, greedy, cache).expect("matcher pipeline");
    let r = rematched.run(IsvdAlgorithm::Isvd2).expect("greedy ISVD2");
    assert_eq!(r.timings.cache_misses, 1, "only GramAlign recomputes");
}

#[test]
fn mixed_targets_share_stages_within_one_session() {
    // Stage outputs are target-independent: running the same algorithm
    // under a different target must be a full cache hit, and the produced
    // factors must still match the standalone path bitwise.
    let m = random_interval_matrix(703, 11, 7, 1.0);
    let config = IsvdConfig::new(4);
    let mut pipeline = Pipeline::new(&m, config).expect("pipeline");
    pipeline.run(IsvdAlgorithm::Isvd4).expect("warm");
    for target in DecompositionTarget::all() {
        let r = pipeline
            .run_with_target(IsvdAlgorithm::Isvd4, target)
            .expect("ISVD4 under target");
        assert_eq!(r.timings.cache_misses, 0, "{target} recomputed a stage");
        let standalone = isvd(
            &m,
            &config
                .with_algorithm(IsvdAlgorithm::Isvd4)
                .with_target(target),
        )
        .expect("standalone");
        assert_bitwise_equal(&r.factors, &standalone.factors, &format!("ISVD4 {target}"));
    }
}

#[test]
fn every_entry_kind_reproduces_pinned_ids_factor_bits_and_append_behaviour() {
    entry_kinds::check_every_entry_kind();
}

/// Appends `rows` (bad at `cell` = (local row, col)) and asserts the
/// typed rejection names the cell's row in the extended matrix, leaves
/// the content id, and keeps the retained Gram a cache hit.
fn assert_bad_append_rejected<S: IntervalShard, R: IntervalShard>(
    session: &mut Pipeline<'_, S>,
    rows: R,
    cell: (usize, usize, f64, f64),
    context: &str,
) {
    let id = session.content_id();
    let (hits, misses) = (session.cache().hits(), session.cache().misses());
    match session.append_rows(rows) {
        Err(IvmfError::InvalidBounds { row, col, lo, hi }) => {
            assert_eq!(
                (row, col),
                (session.shape().0 + cell.0, cell.1),
                "{context}"
            );
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (cell.2.to_bits(), cell.3.to_bits()),
                "{context}"
            );
        }
        other => panic!("{context}: expected InvalidBounds, got {other:?}"),
    }
    assert_eq!(session.content_id(), id, "{context}: content id moved");
    session.interval_gram().unwrap();
    assert_eq!(
        session.cache().hits(),
        hits + 1,
        "{context}: Gram not a hit"
    );
    assert_eq!(
        session.cache().misses(),
        misses,
        "{context}: Gram recomputed"
    );
}

#[test]
fn appends_reject_nan_inf_and_inverted_bounds_before_any_state_changes() {
    let (m, extra) = entry_kind_fixture();
    let csr = CsrShardedIntervalMatrix::from_dense(&m, 7).unwrap();
    let config = IsvdConfig::new(4);
    let mut dense = Pipeline::new(&m, config).unwrap();
    let mut sparse = Pipeline::new_sharded(&csr, config).unwrap();
    dense.run(IsvdAlgorithm::Isvd2).unwrap();
    sparse.run(IsvdAlgorithm::Isvd2).unwrap();
    for (label, (i, j, lo, hi)) in [
        ("NaN", (1, 4, f64::NAN, 2.0)),
        ("+Inf", (3, 9, 0.5, f64::INFINITY)),
        ("inverted", (4, 2, 3.0, 1.0)),
    ] {
        let mut bad = extra.clone().into_bounds();
        bad.0[(i, j)] = lo;
        bad.1[(i, j)] = hi;
        let bad = IntervalMatrix::from_bounds(bad.0, bad.1).unwrap();
        let cell = (i, j, lo, hi);
        let bad_csr = CsrIntervalShard::from_dense(&bad);
        assert_bad_append_rejected(&mut dense, bad.clone(), cell, &format!("dense {label}"));
        assert_bad_append_rejected(&mut sparse, bad_csr, cell, &format!("csr {label}"));
        assert_bad_append_rejected(&mut sparse, bad, cell, &format!("dense rows, csr {label}"));
    }
    // The sessions still take valid rows afterwards.
    dense.append_rows(extra.clone()).unwrap();
    sparse.append_rows(extra).unwrap();
    assert_eq!(dense.shape(), (41, 11));
    assert_eq!(sparse.shape(), (41, 11));
}

/// A lazy shard source over shards held in memory: the one entry kind
/// whose shards no disk reader has checked.
struct MemorySource<S> {
    shards: Vec<S>,
    shape: (usize, usize),
    next: usize,
}

impl<S: IntervalShard> MemorySource<S> {
    fn boxed(m: &ShardedIntervalMatrix<S>) -> Box<Self> {
        let shards = m.shards().to_vec();
        Box::new(MemorySource {
            shards,
            shape: m.shape(),
            next: 0,
        })
    }
}

impl<S: IntervalShard> ShardSource<S> for MemorySource<S> {
    fn shape(&self) -> (usize, usize) {
        self.shape
    }
    fn rewind(&mut self) -> ivmf_interval::Result<()> {
        self.next = 0;
        Ok(())
    }
    fn pull(&mut self) -> ivmf_interval::Result<Option<S>> {
        self.next += 1;
        Ok(self.shards.get(self.next - 1).cloned())
    }
}

#[test]
fn constructors_reject_nan_inf_and_inverted_cells_naming_the_global_cell() {
    let (m, _) = entry_kind_fixture();
    let c = IsvdConfig::new(4);
    for (label, (i, j, lo, hi)) in [
        ("NaN", (20, 4, f64::NAN, 2.0)),
        ("+Inf", (33, 9, 0.5, f64::INFINITY)),
        ("inverted", (8, 1, 3.0, 1.0)),
    ] {
        let (mut lo_b, mut hi_b) = m.clone().into_bounds();
        lo_b[(i, j)] = lo;
        hi_b[(i, j)] = hi;
        let bad = IntervalMatrix::from_bounds(lo_b, hi_b).unwrap();
        let dense = RowShardedIntervalMatrix::from_dense(&bad, 7).unwrap();
        let csr = CsrIntervalShard::from_dense(&bad);
        let csr_one = CsrShardedIntervalMatrix::from_csr(&csr, bad.rows()).unwrap();
        let csr_shards = CsrShardedIntervalMatrix::from_csr(&csr, 7).unwrap();

        // Every in-memory entry kind of both representations, a custom
        // lazy source included.
        let rejected = [
            ("dense borrowed", Pipeline::new(&bad, c).err()),
            (
                "dense with cache",
                Pipeline::with_cache(&bad, c, StageCache::new()).err(),
            ),
            ("dense sharded", Pipeline::new_sharded(&dense, c).err()),
            ("dense owned", Pipeline::from_shards(dense.clone(), c).err()),
            (
                "dense source",
                Pipeline::new_streaming(MemorySource::boxed(&dense), c).err(),
            ),
            (
                "dense source send",
                Pipeline::new_streaming_send(MemorySource::boxed(&dense), c).err(),
            ),
            ("csr borrowed", Pipeline::new_sharded(&csr_one, c).err()),
            ("csr sharded", Pipeline::new_sharded(&csr_shards, c).err()),
            (
                "csr owned",
                Pipeline::from_shards(csr_shards.clone(), c).err(),
            ),
            (
                "csr source",
                Pipeline::new_streaming_csr(MemorySource::boxed(&csr_shards), c).err(),
            ),
            (
                "csr source send",
                Pipeline::new_streaming_csr_send(MemorySource::boxed(&csr_shards), c).err(),
            ),
        ];
        for (kind, err) in rejected {
            match err {
                Some(IvmfError::InvalidBounds {
                    row,
                    col,
                    lo: l,
                    hi: h,
                }) => {
                    assert_eq!((row, col), (i, j), "{kind}, {label}");
                    assert_eq!(
                        (l.to_bits(), h.to_bits()),
                        (lo.to_bits(), hi.to_bits()),
                        "{kind}, {label}"
                    );
                }
                other => panic!("{kind}, {label}: expected InvalidBounds, got {other:?}"),
            }
        }

        // A disk source fails in its reader, which names the cell first.
        let (dense_path, csr_path) = (TempPath::new("bad_dense"), TempPath::new("bad_csr"));
        write_interval_matrix(&dense_path, &bad).unwrap();
        write_csr_matrix(&csr_path, &csr).unwrap();
        let from_disk = [
            Pipeline::new_streaming(Box::new(ShardReader::open(&dense_path, 7).unwrap()), c).err(),
            Pipeline::new_streaming_csr(Box::new(CsrShardReader::open(&csr_path, 7).unwrap()), c)
                .err(),
        ];
        for err in from_disk {
            let err = err.expect("a disk source over a bad cell opened");
            assert!(
                !matches!(err, IvmfError::InvalidBounds { .. }),
                "{label}: {err}"
            );
            assert!(
                err.to_string().contains(&format!("cell ({i}, {j})")),
                "{label}: {err}"
            );
        }
    }
}
