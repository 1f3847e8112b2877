//! Bitwise-equivalence and cache-accounting suite for the staged
//! decomposition pipeline: a batched `run_all` (shared-stage cache on) must
//! produce *exactly* the same factorizations as five standalone `isvd`
//! calls — the cache changes when a stage runs, never its arithmetic — and
//! the per-run accounting must report the sharing truthfully. Every way to
//! open a session, dense or CSR, must reproduce pinned content ids and
//! factor bits, and appends must reject bad bounds before changing state.

use ivmf_core::isvd::isvd;
use ivmf_core::pipeline::{run_all, run_all_batch, DecompPlan, Pipeline, StageId};
use ivmf_core::{
    DecompositionTarget, IntervalSvd, IsvdAlgorithm, IsvdConfig, IsvdResult, IvmfError,
};
use ivmf_data::stream::{write_csr_matrix, write_interval_matrix, CsrShardReader, ShardReader};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{
    CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix, IntervalShard,
    RowShardedIntervalMatrix,
};
use ivmf_linalg::random::uniform_matrix;
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mirrors `ivmf_core::test_support::random_interval_matrix` (which is
/// `cfg(test)`-gated and invisible to integration tests); keep the two in
/// sync.
fn random_interval_matrix(seed: u64, n: usize, m: usize, span: f64) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lo = uniform_matrix(&mut rng, n, m, 0.5, 4.0);
    let spans = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..span));
    let hi = lo.add(&spans).unwrap();
    IntervalMatrix::from_bounds(lo, hi).unwrap()
}

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
    // Exact hit/miss accounting: keep the auto-snapshot knob out.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
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
    // Exact hit/miss accounting: keep the auto-snapshot knob out.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
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
    // Exact hit/miss accounting: keep the auto-snapshot knob out.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
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
    // Exact hit/miss accounting: keep the auto-snapshot knob out.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
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

/// The matrix every entry kind opens: 36 rows (a third of the cells
/// `[0, 0]`, so the CSR form stores less) and the 5 rows appended to it.
fn entry_kind_fixture() -> (IntervalMatrix, IntervalMatrix) {
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
fn factor_digest(results: &[IsvdResult]) -> u64 {
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
type EntryOutcome = ((u64, u64), Option<(u64, u64)>);

fn exercise<S: IntervalShard, R: IntervalShard>(
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

#[test]
fn every_entry_kind_reproduces_pinned_ids_factor_bits_and_append_behaviour() {
    // Computed at commit 7e31f33, when each representation still had its
    // own session code: content ids name snapshot files, so they must not
    // move, and every entry kind must keep the factor bits.
    const DENSE: (u64, u64) = (0xfea0_61ac_d070_8252, 0x3970_02b0_67d7_2034);
    const CSR: (u64, u64) = (0x3de7_8314_913f_96ad, 0xd633_8c1b_cc11_1293);
    const DIGESTS: (u64, u64) = (0xe29d_af96_6e75_1513, 0x0eb5_d9b5_e91a_c1d3);

    let (m, extra) = entry_kind_fixture();
    let extra_csr = CsrIntervalShard::from_dense(&extra);
    let c = IsvdConfig::new(4);
    let dense_shards = RowShardedIntervalMatrix::from_dense(&m, 7).unwrap();
    let csr = CsrIntervalShard::from_dense(&m);
    let csr_one = CsrShardedIntervalMatrix::from_csr(&csr, m.rows()).unwrap();
    let csr_shards = CsrShardedIntervalMatrix::from_csr(&csr, 7).unwrap();
    let tmp = |tag| std::env::temp_dir().join(format!("ivmf_kinds_{}_{tag}", std::process::id()));
    let (dense_path, csr_path) = (tmp("dense"), tmp("csr"));
    write_interval_matrix(&dense_path, &m).unwrap();
    write_csr_matrix(&csr_path, &csr).unwrap();
    let reader = || Box::new(ShardReader::open(&dense_path, 7).unwrap());
    let csr_reader = || Box::new(CsrShardReader::open(&csr_path, 7).unwrap());

    // Every entry kind of each representation, and whether it accepts an
    // append (lazy sessions do not).
    let dense_kinds = [
        ("dense borrowed", Pipeline::new(&m, c), true),
        (
            "dense sharded",
            Pipeline::new_sharded(&dense_shards, c),
            true,
        ),
        (
            "dense owned",
            Pipeline::from_shards(dense_shards.clone(), c),
            true,
        ),
        ("dense lazy", Pipeline::new_streaming(reader(), c), false),
        (
            "dense lazy send",
            Pipeline::new_streaming_send(reader(), c),
            false,
        ),
    ];
    let csr_kinds = [
        ("csr borrowed", Pipeline::new_sharded(&csr_one, c), true),
        ("csr sharded", Pipeline::new_sharded(&csr_shards, c), true),
        (
            "csr owned",
            Pipeline::from_shards(csr_shards.clone(), c),
            true,
        ),
        (
            "csr lazy",
            Pipeline::new_streaming_csr(csr_reader(), c),
            false,
        ),
        (
            "csr lazy send",
            Pipeline::new_streaming_csr_send(csr_reader(), c),
            false,
        ),
    ];
    let mut cases = Vec::new();
    for (kind, session, accepts) in dense_kinds {
        cases.push((
            kind,
            exercise(session.unwrap(), extra.clone()),
            DENSE,
            accepts,
        ));
    }
    for (kind, session, accepts) in csr_kinds {
        cases.push((
            kind,
            exercise(session.unwrap(), extra_csr.clone()),
            CSR,
            accepts,
        ));
    }
    // Mixed representations: a CSR session compresses dense rows, a dense
    // session refuses CSR rows.
    let csr_session = Pipeline::from_shards(csr_shards, c).unwrap();
    cases.push(("dense rows, csr", exercise(csr_session, extra), CSR, true));
    let dense_session = Pipeline::from_shards(dense_shards, c).unwrap();
    cases.push((
        "csr rows, dense",
        exercise(dense_session, extra_csr),
        DENSE,
        false,
    ));
    std::fs::remove_file(&dense_path).ok();
    std::fs::remove_file(&csr_path).ok();

    // The factor bits depend on the eigensolver mode (a forced top-k
    // solve is certified, not bitwise the full one), the content ids not.
    let ((_, digest), appended) = cases[0].1;
    let digests = (digest, appended.unwrap().1);
    if std::env::var(ivmf_env::TOPK_EIGEN).map_or(true, |v| v == "auto") {
        assert_eq!(digests, DIGESTS, "factor bits moved");
    }
    for (kind, (before, after), ids, accepts) in cases {
        assert_eq!(before, (ids.0, digests.0), "{kind}: id and factor bits");
        let want = accepts.then_some((ids.1, digests.1));
        assert_eq!(after, want, "{kind}: id and factor bits after the append");
    }
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
