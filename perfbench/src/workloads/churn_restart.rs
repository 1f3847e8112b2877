//! `churn_restart`: append churn plus warm restart.
//!
//! Why: incremental Gram folds, cache seeding and pruning, and the snapshot
//! codec with its fsync do the work; the cold Gram never runs after set-up.
//! A change that speeds cold decomposition at the cost of append or
//! restore shows here and not in `dense_roster`.
//!
//! Set-up: four 480×250 base matrices in 30-row shards (rank 20), each with
//! `run_all` over it and a base checkpoint.
//!
//! One epoch: restart (a fresh `Pipeline::from_shards` plus `restore_from`
//! the checkpoint of the epoch's base), ten ops, then `snapshot_to` an epoch checkpoint
//! (fsync included). One op is `append_rows` of 8 fresh rows followed by
//! ISVD2–4 and the output check. Epochs have a fixed size, so the matrix
//! never grows past 560 rows and the Gram flavour never flips mid-run.
//! Restarts and checkpoints count in the time behind `ops_per_s`.

use std::path::PathBuf;
use std::time::Instant;

use ivmf_core::{IsvdAlgorithm, IsvdConfig, IsvdResult, Pipeline, RestoreReport};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::{check_accuracy, check_factors, Digests};
use crate::harness::{
    book_gram_route, mr_gram_flops, ms_since, pool_counts, repeated_setup, sub_seed, Outcome,
    RunConfig, Traced,
};
use crate::json::Json;
use crate::ledger::{Ledger, RunStamp, Stamp, UnitLog, Work};

pub const NAME: &str = "churn_restart";
pub const WHY: &str = "Warm restart from a checkpoint, then 8-row appends each followed by \
ISVD2-4, then a checkpoint: incremental Gram folds, cache seed and prune, and the snapshot \
codec with fsync do the work; the cold Gram never runs.";

const BASE: u64 = 3;
const APPENDS: u64 = 4;
const ACCURACY_FLOOR: f64 = 0.4;
const ALGORITHMS: [IsvdAlgorithm; 3] = [
    IsvdAlgorithm::Isvd2,
    IsvdAlgorithm::Isvd3,
    IsvdAlgorithm::Isvd4,
];

fn uniform(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_uniform(
        &SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    )
}

/// `a` with the rows of `b` appended.
fn stacked(a: &IntervalMatrix, b: &IntervalMatrix) -> Result<IntervalMatrix, String> {
    let cat = |x: &Matrix, y: &Matrix| {
        let mut v = x.as_slice().to_vec();
        v.extend_from_slice(y.as_slice());
        Matrix::from_vec(x.rows() + y.rows(), x.cols(), v)
    };
    IntervalMatrix::from_bounds(
        cat(a.lo(), b.lo()).map_err(|e| e.to_string())?,
        cat(a.hi(), b.hi()).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())
}

fn check_restore(report: &RestoreReport) -> Result<(), String> {
    if report.checksum_ok && report.gram_restored && report.dropped == 0 {
        Ok(())
    } else {
        Err(format!("restore incomplete: {report:?}"))
    }
}

/// A base matrix, its shards and its checkpoint.
struct Base {
    matrix: IntervalMatrix,
    shards: RowShardedIntervalMatrix,
    ckpt: PathBuf,
}

struct Churn<'c> {
    cfg: &'c RunConfig,
    /// Epoch `e` restarts from base `e mod bases.len()`. How often an
    /// epoch's bound eigenproblems fall back to the dense solver depends
    /// mostly on its base, so a run averages over several bases instead of
    /// inheriting one base's luck.
    bases: Vec<Base>,
    epoch_ckpt: PathBuf,
    digests: Digests,
    accuracy: Vec<f64>,
}

/// What an epoch measured.
#[derive(Default)]
struct Epoch {
    restart_ms: f64,
    /// Append, ISVD2–4 and the output check.
    op_ms: Vec<f64>,
    append_ms: Vec<f64>,
    failures: Vec<String>,
}

impl<'c> Churn<'c> {
    fn setup(cfg: &'c RunConfig) -> Result<Churn<'c>, String> {
        let s = &cfg.scale;
        let (rows, cols) = s.churn_base;
        let mut bases = Vec::with_capacity(s.churn_bases);
        for b in 0..s.churn_bases {
            let matrix = uniform(sub_seed(cfg.seed, BASE, b as u64), rows, cols);
            let shards = RowShardedIntervalMatrix::from_dense(&matrix, s.churn_shard_rows)
                .map_err(|e| e.to_string())?;
            let mut p = Pipeline::from_shards(shards.clone(), IsvdConfig::new(s.rank))
                .map_err(|e| format!("base session: {e}"))?;
            p.run_all().map_err(|e| format!("base run_all: {e}"))?;
            let ckpt = cfg.work_dir.join(format!("churn_base{b}.snapshot"));
            p.snapshot_to(&ckpt)
                .map_err(|e| format!("base checkpoint: {e}"))?;
            bases.push(Base {
                matrix,
                shards,
                ckpt,
            });
        }
        Ok(Churn {
            cfg,
            bases,
            epoch_ckpt: cfg.work_dir.join("churn_epoch.snapshot"),
            digests: Digests::default(),
            accuracy: Vec::new(),
        })
    }

    /// The rows appended by op `k` of epoch `e`.
    fn rows(&self, e: u64, k: u64) -> IntervalMatrix {
        let s = &self.cfg.scale;
        let key = e * s.churn_ops_per_epoch as u64 + k;
        uniform(
            sub_seed(self.cfg.seed, APPENDS, key),
            s.churn_append_rows,
            s.churn_base.1,
        )
    }

    fn check(
        &mut self,
        key: u64,
        current: &IntervalMatrix,
        results: &[IsvdResult],
    ) -> Result<f64, String> {
        let mut acc = 0.0;
        for r in results {
            check_factors(&r.factors)?;
            acc += check_accuracy(current, &r.factors, ACCURACY_FLOOR)?;
        }
        self.digests.check(key, &results[2].factors)?;
        Ok(acc / results.len() as f64)
    }

    /// One epoch. With `trace`, every call is stamped into a unit that is
    /// booked on the ledger, and the work of each layer is computed after
    /// the unit ends. Returns the epoch and its wall time (ms).
    fn epoch(&mut self, e: u64, trace: Option<&mut Traced>) -> Result<(Epoch, f64), String> {
        let s = self.cfg.scale.clone();
        let config = IsvdConfig::new(s.rank);
        let base = &self.bases[(e % self.bases.len() as u64) as usize];
        let shards = base.shards.clone();
        let base_ckpt = base.ckpt.clone();
        // Inputs are generated before the epoch's clock starts: each op's
        // rows, and the matrix they extend it to (for the accuracy check).
        let mut inputs = Vec::with_capacity(s.churn_ops_per_epoch);
        let mut current = base.matrix.clone();
        for k in 0..s.churn_ops_per_epoch as u64 {
            let rows = self.rows(e, k);
            current = stacked(&current, &rows)?;
            inputs.push((k, rows, current.clone()));
        }
        let traced = trace.is_some();
        let (h0, m0) = pool_counts();
        let mut unit = UnitLog::new(Instant::now());
        let mut ep = Epoch::default();

        let t = Instant::now();
        let mut p = Pipeline::from_shards(shards, config).map_err(|e| format!("restart: {e}"))?;
        stamp(&mut unit, traced, "core.session_open", t);
        let t_restore = Instant::now();
        let report = p
            .restore_from(&base_ckpt)
            .map_err(|e| format!("restore: {e}"))?;
        stamp(&mut unit, traced, "core.restore", t_restore);
        ep.restart_ms = ms_since(t);
        check_restore(&report)?;

        let mut replay = Vec::new();
        for (k, rows, current) in inputs {
            let t_op = Instant::now();
            let appended = p.append_rows(rows).map_err(|e| format!("append: {e}"));
            let append_ms = stamp(&mut unit, traced, "core.append", t_op);
            if let Err(err) = appended {
                ep.failures.push(err);
                break;
            }
            let mut results = Vec::with_capacity(3);
            for alg in ALGORITHMS {
                let start = Instant::now();
                let Ok(r) = p
                    .run(alg)
                    .map_err(|err| ep.failures.push(format!("{alg}: {err}")))
                else {
                    break;
                };
                if traced {
                    unit.runs.push(RunStamp {
                        label: alg.name(),
                        start,
                        end: Instant::now(),
                        stages: r.stages.clone(),
                    });
                }
                results.push(r);
            }
            if results.len() < ALGORITHMS.len() {
                continue;
            }
            let t_check = Instant::now();
            let checked = self.check(e * s.churn_ops_per_epoch as u64 + k, &current, &results);
            stamp(&mut unit, traced, "bench.check", t_check);
            match checked {
                Ok(acc) => {
                    if e == 0 && self.accuracy.len() < s.churn_ops_per_epoch {
                        self.accuracy.push(acc);
                    }
                    ep.op_ms.push(ms_since(t_op));
                    ep.append_ms.push(append_ms);
                    if traced {
                        let gram = p.interval_gram().map_err(|e| format!("gram replay: {e}"))?;
                        replay.push((current.rows(), gram));
                    }
                }
                Err(err) => ep.failures.push(err),
            }
        }
        let t_ckpt = Instant::now();
        p.snapshot_to(&self.epoch_ckpt)
            .map_err(|e| format!("checkpoint: {e}"))?;
        stamp(&mut unit, traced, "core.snapshot_write", t_ckpt);
        unit.end = Instant::now();
        let wall_ms = (unit.end - unit.start).as_secs_f64() * 1e3;

        if let Some(t) = trace {
            let (h1, m1) = pool_counts();
            t.pool_hits += h1 - h0;
            t.pool_misses += m1 - m0;
            t.cache_hits += p.cache().hits();
            t.cache_misses += p.cache().misses();
            t.ledger.absorb(&unit, Vec::new());
            t.ops += ep.op_ms.len() as u64;
            let (base_rows, cols) = s.churn_base;
            let file_bytes = |p: &PathBuf| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
            t.snapshot_bytes = file_bytes(&self.epoch_ckpt);
            let l = &mut t.ledger;
            l.add_work(
                "core.session_open",
                Work::Bytes((16 * base_rows * cols) as f64),
            );
            l.add_work("core.restore", Work::Bytes(file_bytes(&base_ckpt)));
            l.add_work("core.snapshot_write", Work::Bytes(t.snapshot_bytes));
            for (rows, gram) in &replay {
                let appended = (0..s.churn_append_rows).map(|_| cols);
                let flops = mr_gram_flops(appended);
                t.ledger.add_work("core.append", Work::Flops(flops));
                book_gram_route(t, gram, rows * cols, s.rank)?;
            }
        }
        Ok((ep, wall_ms))
    }
}

/// Milliseconds since `start`, also stamped into `unit` as a call into
/// `layer` when the epoch is traced.
fn stamp(unit: &mut UnitLog, traced: bool, layer: &'static str, start: Instant) -> f64 {
    let end = Instant::now();
    if traced {
        unit.stamps.push(Stamp { layer, start, end });
    }
    (end - start).as_secs_f64() * 1e3
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // Set-up: base session, base checkpoint, one untimed warm-up epoch.
    let mut w = repeated_setup(cfg.scale.setup_repeats, &mut out.setup_s, || {
        let mut w = Churn::setup(cfg)?;
        let (ep, _) = w.epoch(0, None)?;
        match ep.failures.first() {
            Some(err) => Err(format!("warm-up epoch: {err}")),
            None => Ok(w),
        }
    })?;

    let record = |out: &mut Outcome, result: Result<(Epoch, f64), String>| -> Option<f64> {
        match result {
            Ok((ep, wall)) => {
                out.busy_s += wall / 1e3;
                out.open_ms.push(ep.restart_ms);
                for &ms in &ep.op_ms {
                    out.record::<()>(Ok(()));
                    out.op_ms.push(ms);
                }
                out.append_ms.extend(&ep.append_ms);
                for err in ep.failures {
                    out.record::<()>(Err(err));
                }
                Some(wall)
            }
            Err(err) => {
                out.record::<()>(Err(err));
                None
            }
        }
    };

    let mut traced = cfg.trace.then(|| Traced::new(Ledger::new(Instant::now())));
    let start = Instant::now();
    let mut e = 0u64;
    while e == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        match traced.as_mut() {
            None => {
                record(&mut out, w.epoch(e, None));
            }
            Some(t) => {
                // Each epoch's rows run untraced and traced, alternating
                // which goes first.
                let traced_first = e % 2 == 1;
                for traced_turn in [traced_first, !traced_first] {
                    if traced_turn {
                        let r = w.epoch(e, Some(&mut *t));
                        if let Some(ms) = record(&mut out, r) {
                            t.traced_ms += ms;
                        }
                    } else if let Some(ms) = record(&mut out, w.epoch(e, None)) {
                        t.untraced_ms += ms;
                    }
                }
            }
        }
        e += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.traced = traced;
    out.accuracy = std::mem::take(&mut w.accuracy);
    out.digests_compared = w.digests.compared;
    out.notes = Json::obj()
        .with("epochs", e)
        .with("bases", cfg.scale.churn_bases)
        .with("ops_per_epoch", cfg.scale.churn_ops_per_epoch)
        .with("append_rows", cfg.scale.churn_append_rows)
        .with("append_p50_ms", crate::stats::median(&out.append_ms))
        .with("restart_p50_ms", crate::stats::median(&out.open_ms));
    for b in &w.bases {
        std::fs::remove_file(&b.ckpt).ok();
    }
    std::fs::remove_file(&w.epoch_ckpt).ok();
    Ok(out)
}
