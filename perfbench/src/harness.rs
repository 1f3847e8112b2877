//! What every workload shares: sizes, the run configuration, the closed
//! loop, and the record a workload hands back.

use std::path::PathBuf;
use std::time::Instant;

use ivmf_interval::IntervalMatrix;
use ivmf_linalg::eigen_topk::{sym_eigen_topk_report, TopkOptions, TopkReport};

use crate::json::Json;
use crate::ledger::{Ledger, Work};

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::smoke`] shrinks
/// every shape so the tests can drive each workload end to end in well
/// under a second.
#[derive(Debug, Clone)]
pub struct Scale {
    pub rank: usize,
    /// The paper's default synthetic shape.
    pub paper: (usize, usize),
    /// The tall shape whose Gram is 256×256.
    pub tall: (usize, usize),
    /// Paper/tall pairs decomposed per `dense_roster` op.
    pub roster_pairs: usize,
    pub ooc_rows: usize,
    pub ooc_cols: usize,
    pub ooc_nnz_per_row: usize,
    pub ooc_shard_rows: usize,
    /// Rows of the out-of-core matrix whose reconstruction is checked.
    pub ooc_sample_rows: usize,
    pub churn_base: (usize, usize),
    /// Distinct base matrices the epochs cycle through.
    pub churn_bases: usize,
    pub churn_shard_rows: usize,
    pub churn_append_rows: usize,
    pub churn_ops_per_epoch: usize,
    /// Times the set-up is repeated; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Bytes of the triad arrays together; `None` sizes them at four times
    /// the last-level cache.
    pub triad_bytes: Option<usize>,
    pub fma_iters: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            rank: 20,
            paper: (40, 250),
            tall: (560, 256),
            roster_pairs: 2,
            ooc_rows: 200_000,
            ooc_cols: 256,
            ooc_nnz_per_row: 16,
            ooc_shard_rows: 4096,
            ooc_sample_rows: 2048,
            churn_base: (480, 250),
            churn_bases: 4,
            churn_shard_rows: 30,
            churn_append_rows: 8,
            churn_ops_per_epoch: 10,
            setup_repeats: 3,
            triad_bytes: None,
            fma_iters: 20_000_000,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            rank: 4,
            paper: (12, 30),
            tall: (60, 32),
            roster_pairs: 1,
            ooc_rows: 3000,
            ooc_cols: 32,
            ooc_nnz_per_row: 6,
            ooc_shard_rows: 512,
            ooc_sample_rows: 64,
            churn_base: (48, 24),
            churn_bases: 2,
            churn_shard_rows: 10,
            churn_append_rows: 4,
            churn_ops_per_epoch: 3,
            setup_repeats: 2,
            triad_bytes: Some(3 << 20),
            fma_iters: 10_000,
        }
    }
}

/// One invocation of a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Run the traced variant (per-layer ledger) instead of the plain one.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for files the workload writes.
    pub work_dir: PathBuf,
}

/// A 64-bit seed for input `index` of stream `tag`, derived from the run
/// seed (splitmix64 finalizer over the mixed words).
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What a workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Wall time of the timed loop (s).
    pub wall_s: f64,
    /// The part of `wall_s` spent in timed units (ops, or whole epochs with
    /// their restarts and checkpoints): the wall minus the benchmark's own
    /// input generation between units. `ops_per_s` divides by it.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Latency of each completed op (ms).
    pub op_ms: Vec<f64>,
    /// Latency of each session open (ms): what it takes before a session
    /// answers its first query.
    pub open_ms: Vec<f64>,
    /// Latency of each append (ms); empty for workloads without writes.
    pub append_ms: Vec<f64>,
    /// Definition-5 accuracy of each distinct input, averaged over the
    /// algorithms the workload runs (deterministic for a seed).
    pub accuracy: Vec<f64>,
    /// Ops whose ISVD4 digest was compared with an earlier op on the same
    /// input.
    pub digests_compared: u64,
    /// Workload-specific facts for the report.
    pub notes: Json,
    /// The ledger of the traced run.
    pub traced: Option<Traced>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            wall_s: 0.0,
            busy_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            op_ms: Vec::new(),
            open_ms: Vec::new(),
            append_ms: Vec::new(),
            accuracy: Vec::new(),
            digests_compared: 0,
            notes: Json::obj(),
            traced: None,
        }
    }

    /// Counts an op as attempted and, on error, as failed.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(e);
                }
                None
            }
        }
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome::new()
    }
}

/// The traced run's results: the ledger plus the counters measured next to
/// it.
#[derive(Debug)]
pub struct Traced {
    pub ledger: Ledger,
    /// Wall time of the untraced and traced executions of the same units.
    pub untraced_ms: f64,
    pub traced_ms: f64,
    /// Traced ops (the per-op divisor of every `_ms` layer metric).
    pub ops: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Gram-bound eigenproblems replayed, and how many fell back.
    pub topk_replays: u64,
    pub topk_fallbacks: u64,
    /// Shards in the workload's container (0 when it has none).
    pub shards_in_file: u64,
    /// Container write time during set-up (ms).
    pub write_ms: f64,
    /// Size of the last checkpoint written (bytes).
    pub snapshot_bytes: f64,
}

impl Traced {
    pub fn new(ledger: Ledger) -> Traced {
        Traced {
            ledger,
            untraced_ms: 0.0,
            traced_ms: 0.0,
            ops: 0,
            pool_hits: 0,
            pool_misses: 0,
            cache_hits: 0,
            cache_misses: 0,
            topk_replays: 0,
            topk_fallbacks: 0,
            shards_in_file: 0,
            write_ms: 0.0,
            snapshot_bytes: 0.0,
        }
    }
}

/// Runs `setup` `repeats` times, recording each duration, and keeps the
/// last result.
pub fn repeated_setup<T>(
    repeats: usize,
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let state = setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok(last.expect("at least one repetition"))
}

/// Pool hit/miss counters summed over both scalar shelves.
pub fn pool_counts() -> (u64, u64) {
    let s = ivmf_linalg::pool::stats();
    (s.f64_hits + s.usize_hits, s.f64_misses + s.usize_misses)
}

// ---------------------------------------------------------------------------
// Computed work of the layers (flops and bytes from shapes and counts; no
// hardware counter is read).
// ---------------------------------------------------------------------------

/// Flops of one symmetric top-`k` eigensolve of an `n×n` matrix, by the
/// path `report` says was taken: the dense symmetric QR with eigenvectors
/// (≈ 9n³, Golub & Van Loan) or Lanczos with basis `b` (`b` matrix-vector
/// products, two-pass full reorthogonalization, and the residual
/// certification of `k` pairs).
pub fn eigen_flops(n: usize, k: usize, report: &TopkReport) -> f64 {
    let (n, k) = (n as f64, k as f64);
    if report.used_dense {
        9.0 * n * n * n
    } else {
        let b = report.basis_size as f64;
        2.0 * n * n * (b + k) + 4.0 * n * b * b
    }
}

/// Flops of a midpoint–radius interval Gram over rows with the given
/// stored-entry counts: two symmetric rank-k updates (upper triangle,
/// diagonal included), each `Σ c(c+1)/2` fused multiply-adds.
pub fn mr_gram_flops(row_counts: impl Iterator<Item = usize>) -> f64 {
    row_counts.map(|c| (c * (c + 1)) as f64).sum::<f64>() * 2.0
}

/// Flops of the two bound products `M_lo·X`, `M_hi·X` with `X` having `r`
/// columns, over `nnz` stored entries per bound.
pub fn bound_products_flops(nnz: usize, r: usize) -> f64 {
    2.0 * 2.0 * nnz as f64 * r as f64
}

/// Books the work of the stages every Gram-route run (ISVD2–4) shares.
/// The two bound eigenproblems are replayed from the session's Gram through
/// `sym_eigen_topk_report` (the solver the pipeline calls, with the same
/// default options) to learn which path each took and to count fallbacks;
/// the left recovery, aligned solve and right tightening each make two
/// bound products over `entries` stored entries per bound.
pub fn book_gram_route(
    t: &mut Traced,
    gram: &IntervalMatrix,
    entries: usize,
    rank: usize,
) -> Result<(), String> {
    for bound in [gram.lo(), gram.hi()] {
        let (_, rep) = sym_eigen_topk_report(bound, rank, &TopkOptions::default())
            .map_err(|e| format!("eigen replay: {e}"))?;
        t.topk_replays += 1;
        t.topk_fallbacks += u64::from(rep.used_fallback);
        let flops = eigen_flops(bound.rows(), rank, &rep);
        t.ledger.add_work("stage.BoundEigen", Work::Flops(flops));
    }
    for stage in [
        "stage.LeftRecover",
        "stage.AlignedSolve",
        "stage.RightTighten",
    ] {
        let flops = bound_products_flops(entries, rank);
        t.ledger.add_work(stage, Work::Flops(flops));
    }
    Ok(())
}
