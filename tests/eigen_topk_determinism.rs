//! Determinism acceptance suite for the certified top-k eigensolver:
//!
//! * `sym_eigen_topk_with` is bitwise identical across `IVMF_THREADS`
//!   ∈ {1, 4},
//! * the solver is invariant to the shard layout when reached through
//!   the row-sharded and sparse CSR Gram routes (the streamed Grams are
//!   bitwise equal, and so are their top-k eigendecompositions),
//! * the full pipeline (all five algorithms × every decomposition
//!   target) produces equivalent factor bounds under
//!   `IVMF_TOPK_EIGEN=forced` and `=full`, within the solver's
//!   certified tolerance,
//! * the env-dispatching `sym_eigen_topk` entry point routes exactly to
//!   the explicit-options paths (`forced` ↔ `with_force(true)`, `full`
//!   ↔ dense truncation), bitwise, and rejects NaN/±Inf input under every
//!   mode.
//!
//! Tests that mutate process environment variables serialize on a
//! file-local mutex; everything else drives the solver through explicit
//! [`TopkOptions`] and is immune to the CI environment passes.

use std::sync::Mutex;

use ivmf_core::pipeline::run_all;
use ivmf_core::{run_all_sharded, DecompositionTarget, IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::eigen_sym::SymEigen;
use ivmf_linalg::random::{symmetric_matrix, uniform_matrix};
use ivmf_linalg::{sym_eigen_topk, sym_eigen_topk_report, sym_eigen_topk_with, TopkOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Serializes every test in this file that writes process environment
/// variables (`IVMF_THREADS`, `IVMF_TOPK_EIGEN`). Concurrent tests only
/// ever *read* the environment through `TopkOptions`-driven calls.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn synthetic(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_uniform(
        &SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    )
}

fn forced() -> TopkOptions {
    TopkOptions::default().with_force(true)
}

fn assert_eig_bitwise(a: &SymEigen, b: &SymEigen, context: &str) {
    assert_eq!(
        a.eigenvalues, b.eigenvalues,
        "{context}: eigenvalues differ"
    );
    assert_eq!(
        a.eigenvectors, b.eigenvectors,
        "{context}: eigenvectors differ"
    );
}

/// Env save/set helper so a panicking assertion cannot leak state into
/// other suites: restores on drop.
struct EnvGuard {
    key: &'static str,
    prev: Option<String>,
}

impl EnvGuard {
    fn set(key: &'static str, value: &str) -> Self {
        let prev = std::env::var(key).ok();
        std::env::set_var(key, value);
        EnvGuard { key, prev }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(v) => std::env::set_var(self.key, v),
            None => std::env::remove_var(self.key),
        }
    }
}

#[test]
fn topk_is_bitwise_invariant_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    // A rank-deficient Wishart-style matrix large enough that the forced
    // path genuinely iterates (it is profitable at n = 200, k = 12).
    let mut rng = SmallRng::seed_from_u64(7001);
    let a = uniform_matrix(&mut rng, 60, 200, -1.0, 1.0).gram();

    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        let env = EnvGuard::set(ivmf_par::THREADS_ENV, threads);
        let (eig, report) = sym_eigen_topk_report(&a, 12, &forced()).unwrap();
        drop(env);
        assert!(
            !report.used_dense,
            "threads={threads}: forced path fell back to the dense solver"
        );
        runs.push(eig);
    }
    assert_eig_bitwise(&runs[0], &runs[1], "IVMF_THREADS 1 vs 4");
}

#[test]
fn topk_is_invariant_to_shard_layout_through_the_gram_route() {
    // Whatever the shard layout, the streamed interval Gram is bitwise
    // equal to the dense one — so the top-k eigensolver applied to its
    // bound matrices is bitwise equal too.
    let m = synthetic(7010, 40, 30);
    let reference = m.interval_gram_streamed().unwrap();
    let eig_lo = sym_eigen_topk_with(reference.lo(), 6, &forced()).unwrap();
    let eig_hi = sym_eigen_topk_with(reference.hi(), 6, &forced()).unwrap();

    for shard_rows in [1usize, 7, 40] {
        let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
        let gram = sharded.interval_gram_streamed().unwrap();
        assert_eq!(gram, reference, "shard_rows={shard_rows}: Gram diverged");
        assert_eig_bitwise(
            &sym_eigen_topk_with(gram.lo(), 6, &forced()).unwrap(),
            &eig_lo,
            &format!("shard_rows={shard_rows} lo-bound"),
        );
        assert_eig_bitwise(
            &sym_eigen_topk_with(gram.hi(), 6, &forced()).unwrap(),
            &eig_hi,
            &format!("shard_rows={shard_rows} hi-bound"),
        );
    }
}

#[test]
fn forced_sharded_pipeline_matches_dense_pipeline_bitwise() {
    // End to end: with the top-k kernel forced on, the sharded route
    // still equals the dense route bit for bit — the kernel sees the
    // identical Gram either way.
    let _guard = ENV_LOCK.lock().unwrap();
    let env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "forced");
    let m = synthetic(7020, 34, 12);
    let config = IsvdConfig::new(5);
    let dense = run_all(&m, &config).unwrap();
    for shard_rows in [1usize, 7, 34] {
        let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
        let results = run_all_sharded(&sharded, &config).unwrap();
        for ((r, d), alg) in results.iter().zip(&dense).zip(IsvdAlgorithm::all()) {
            let context = format!("shard_rows={shard_rows}: {alg}");
            assert_eq!(r.factors.u, d.factors.u, "{context} U differs");
            assert_eq!(r.factors.v, d.factors.v, "{context} V differs");
            assert_eq!(r.factors.sigma, d.factors.sigma, "{context} core differs");
        }
    }
    drop(env);
}

/// Largest elementwise gap between the bounds of two interval factor
/// sets, normalized by the larger magnitude in play.
fn max_relative_gap(a: &IsvdResult, b: &IsvdResult) -> f64 {
    let mut scale: f64 = 1.0;
    let mut gap: f64 = 0.0;
    let pairs = [
        (a.factors.u.lo(), b.factors.u.lo()),
        (a.factors.u.hi(), b.factors.u.hi()),
        (a.factors.v.lo(), b.factors.v.lo()),
        (a.factors.v.hi(), b.factors.v.hi()),
    ];
    for (x, y) in pairs {
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()));
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                gap = gap.max((x[(i, j)] - y[(i, j)]).abs());
                scale = scale.max(x[(i, j)].abs()).max(y[(i, j)].abs());
            }
        }
    }
    assert_eq!(a.factors.sigma.len(), b.factors.sigma.len());
    for (s, t) in a.factors.sigma.iter().zip(&b.factors.sigma) {
        gap = gap
            .max((s.lo() - t.lo()).abs())
            .max((s.hi() - t.hi()).abs());
        scale = scale.max(s.lo().abs()).max(t.hi().abs());
    }
    gap / scale
}

#[test]
fn forced_and_full_pipelines_agree_for_every_algorithm_and_target() {
    // All five algorithms × every decomposition target, once under
    // IVMF_TOPK_EIGEN=forced and once under =full. Both kernels certify
    // their answers against the same residual bound and canonicalize
    // eigenvector signs identically, so the assembled interval factors
    // must agree to far better than the certified tolerance.
    let _guard = ENV_LOCK.lock().unwrap();
    let m = synthetic(7030, 26, 10);
    for target in DecompositionTarget::all() {
        let config = IsvdConfig::new(4).with_target(target);
        let forced_run = {
            let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "forced");
            run_all(&m, &config).unwrap()
        };
        let full_run = {
            let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "full");
            run_all(&m, &config).unwrap()
        };
        for ((f, d), alg) in forced_run.iter().zip(&full_run).zip(IsvdAlgorithm::all()) {
            let gap = max_relative_gap(f, d);
            assert!(
                gap <= 1e-7,
                "target {target}, {alg}: forced-vs-full relative gap {gap:e}"
            );
        }
    }
}

#[test]
fn env_dispatch_routes_to_the_explicit_option_paths_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(7040);
    let a = symmetric_matrix(&mut rng, 40, -2.0, 2.0);
    let k = 6;

    // forced ↔ with_force(true).
    let via_env = {
        let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "forced");
        sym_eigen_topk(&a, k).unwrap()
    };
    let via_opts = sym_eigen_topk_with(&a, k, &forced()).unwrap();
    assert_eig_bitwise(&via_env, &via_opts, "forced dispatch");

    // full ↔ the dense truncation an unprofitable auto call performs
    // (n = 40 is below the profitability floor, so default options take
    // the dense path too).
    let via_env = {
        let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "full");
        sym_eigen_topk(&a, k).unwrap()
    };
    let via_opts = sym_eigen_topk_with(&a, k, &TopkOptions::default()).unwrap();
    assert_eig_bitwise(&via_env, &via_opts, "full dispatch");

    // An explicit auto matches default options as well.
    let via_env = {
        let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, "auto");
        sym_eigen_topk(&a, k).unwrap()
    };
    assert_eig_bitwise(&via_env, &via_opts, "auto dispatch");
}

#[test]
fn every_env_mode_rejects_non_finite_input() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(7050);
    let base = symmetric_matrix(&mut rng, 120, -2.0, 2.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = base.clone();
        a[(64, 3)] = bad;
        for mode in ["auto", "forced", "full"] {
            let result = {
                let _env = EnvGuard::set(ivmf_env::TOPK_EIGEN, mode);
                sym_eigen_topk(&a, 20)
            };
            match result {
                Err(ivmf_linalg::LinalgError::InvalidArgument(msg)) => {
                    assert!(msg.contains("(64, 3)"), "{mode}/{bad}: {msg}")
                }
                other => panic!("{mode}/{bad}: not rejected: {other:?}"),
            }
        }
    }
}
