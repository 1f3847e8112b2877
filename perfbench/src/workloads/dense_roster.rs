//! `dense_roster`: in-memory decompositions at the paper's shapes.
//!
//! Why: dense kernels, the interval Gram, the top-k and dense eigensolvers
//! and ILSA do nearly all the work, with no disk, sparse or snapshot layer.
//! It is the control for every data-layer change.
//!
//! Input: an endless fixed-order deck of distinct seeded dense interval
//! matrices, alternating the paper default (40×250) and the tall 560×256
//! shape whose Gram is 256×256, at rank 20. Matrix `k` of the deck is
//! generated from `(seed, k)` when it is needed, so the deck costs no
//! memory and every op sees fresh inputs.
//!
//! One op decomposes one roster of two paper/tall pairs: for each matrix a
//! fresh `Pipeline::new`, then `run_all` (ISVD0–4 sharing one stage cache),
//! then the output check. Deck generation is outside the op's latency.
//!
//! A tall decomposition takes one of a few latency modes: whether each of
//! its truncated eigenproblems certifies by Lanczos or falls back to the
//! dense solver adds about 100 ms. One matrix per op would put the median on
//! a mode boundary (the fast tall mode holds about half the matrices); two
//! tall matrices per op put it inside a mode. The share of tall
//! decompositions in a slow mode is recorded as `slow_mode_fraction`.

use std::collections::HashMap;
use std::time::Instant;

use ivmf_core::{IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::{use_mr_gram, IntervalMatrix};
use ivmf_linalg::eigen_topk::{sym_eigen_topk_report, TopkOptions};
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::{check_accuracy, check_factors, Digests};
use crate::harness::{
    book_gram_route, eigen_flops, mr_gram_flops, ms_since, pool_counts, repeated_setup, sub_seed,
    Outcome, RunConfig, Traced,
};
use crate::json::Json;
use crate::ledger::{Ledger, RunStamp, Stamp, UnitLog, Work};

pub const NAME: &str = "dense_roster";
pub const WHY: &str = "In-memory ISVD0-4 at the paper's 40x250 and the tall 560x256 shape: \
dense kernels, interval Gram, top-k/dense eigensolvers and ILSA, no disk, sparse or snapshot \
layer; the control for data-layer changes.";

const DECK: u64 = 1;
/// Uniform random interval matrices reconstruct at about 0.55-0.6 (tall)
/// and higher (paper shape) at rank 20; a broken kernel lands far below.
const ACCURACY_FLOOR: f64 = 0.4;
/// A tall decomposition slower than this multiple of the run's fastest
/// one is in a slow mode (at least one dense-solver fallback).
const SLOW_MODE_FACTOR: f64 = 2.0;

struct Dense<'c> {
    cfg: &'c RunConfig,
    digests: Digests,
    /// Accuracy of each set-up input: a fixed set per seed, so the
    /// reported mean is deterministic.
    accuracy: HashMap<u64, f64>,
    record_accuracy: bool,
    /// Latency of every tall decomposition (ms).
    tall_ms: Vec<f64>,
}

/// What one decomposition left for the traced run's replays.
struct Done<'m> {
    pipeline: Pipeline<'m>,
    m: &'m IntervalMatrix,
}

impl<'c> Dense<'c> {
    fn matrix(&self, key: u64) -> IntervalMatrix {
        let s = &self.cfg.scale;
        let (rows, cols) = if key % 2 == 0 { s.paper } else { s.tall };
        let mut rng = SmallRng::seed_from_u64(sub_seed(self.cfg.seed, DECK, key));
        generate_uniform(
            &SyntheticConfig::paper_default().with_shape(rows, cols),
            &mut rng,
        )
    }

    /// Roster `index`: deck keys `index·2R .. (index+1)·2R`, paper shape on
    /// even keys.
    fn roster(&self, index: u64) -> Vec<(u64, IntervalMatrix)> {
        let n = 2 * self.cfg.scale.roster_pairs as u64;
        (index * n..(index + 1) * n)
            .map(|k| (k, self.matrix(k)))
            .collect()
    }

    /// One matrix: open, decompose with all five algorithms, check.
    /// Returns the session-open latency.
    fn decompose<'m>(
        &mut self,
        key: u64,
        m: &'m IntervalMatrix,
        mut log: Option<&mut UnitLog>,
    ) -> Result<(f64, Done<'m>), String> {
        let config = IsvdConfig::new(self.cfg.scale.rank);
        let t0 = Instant::now();
        let mut pipeline = Pipeline::new(m, config).map_err(|e| format!("session: {e}"))?;
        let t1 = Instant::now();
        let results = match log.as_deref_mut() {
            None => pipeline
                .run_all()
                .map_err(|e| format!("run_all: {e}"))?
                .to_vec(),
            Some(log) => {
                log.stamps.push(Stamp {
                    layer: "core.session_open",
                    start: t0,
                    end: t1,
                });
                // `run_all` is exactly these five runs in paper order;
                // running them one by one lets each carry its own span.
                let mut out = Vec::with_capacity(5);
                for alg in IsvdAlgorithm::all() {
                    let start = Instant::now();
                    let r = pipeline.run(alg).map_err(|e| format!("{alg}: {e}"))?;
                    log.runs.push(RunStamp {
                        label: alg.name(),
                        start,
                        end: Instant::now(),
                        stages: r.stages.clone(),
                    });
                    out.push(r);
                }
                out
            }
        };
        let check = |this: &mut Self| -> Result<(), String> {
            let mut acc = 0.0;
            for r in &results {
                check_factors(&r.factors)?;
                acc += check_accuracy(m, &r.factors, ACCURACY_FLOOR)?;
            }
            this.digests.check(key, &results[4].factors)?;
            if this.record_accuracy {
                this.accuracy
                    .entry(key)
                    .or_insert(acc / results.len() as f64);
            }
            Ok(())
        };
        match log {
            None => check(self)?,
            Some(log) => log.time("bench.check", || check(self))?,
        }
        Ok(((t1 - t0).as_secs_f64() * 1e3, Done { pipeline, m }))
    }

    /// One op over a roster; returns (latency, summed session opens).
    fn op(&mut self, roster: &[(u64, IntervalMatrix)]) -> Result<(f64, f64), String> {
        let mut total = 0.0;
        let mut open = 0.0;
        for (key, m) in roster {
            let t = Instant::now();
            let (open_ms, done) = self.decompose(*key, m, None)?;
            let ms = ms_since(t);
            drop(done);
            if key % 2 == 1 {
                self.tall_ms.push(ms);
            }
            total += ms;
            open += open_ms;
        }
        Ok((total, open))
    }

    /// The traced twin of [`Dense::op`]: the same calls, each stamped, then
    /// (outside the timed unit) the replays that count solver fallbacks and
    /// the computed work of each layer.
    fn traced_op(
        &mut self,
        roster: &[(u64, IntervalMatrix)],
        t: &mut Traced,
    ) -> Result<f64, String> {
        let (h0, m0) = pool_counts();
        let mut unit = UnitLog::new(Instant::now());
        let mut done = Vec::with_capacity(roster.len());
        for (key, m) in roster {
            let (_, d) = self.decompose(*key, m, Some(&mut unit))?;
            done.push(d);
        }
        unit.end = Instant::now();
        let (h1, m1) = pool_counts();
        t.pool_hits += h1 - h0;
        t.pool_misses += m1 - m0;
        t.ledger.absorb(&unit, Vec::new());
        let ms = (unit.end - unit.start).as_secs_f64() * 1e3;
        for d in &mut done {
            t.cache_hits += d.pipeline.cache().hits();
            t.cache_misses += d.pipeline.cache().misses();
            replay_work(d, self.cfg.scale.rank, t)?;
        }
        t.ops += 1;
        Ok(ms)
    }
}

/// Computed work of one decomposition's layers. The SVD stages' Gram-side
/// eigenproblems are replayed like the bound eigenproblems to learn which
/// path each took.
fn replay_work(d: &mut Done<'_>, rank: usize, t: &mut Traced) -> Result<(), String> {
    let (n, m) = d.m.shape();
    let gram = d
        .pipeline
        .interval_gram()
        .map_err(|e| format!("gram replay: {e}"))?;
    book_gram_route(t, &gram, n * m, rank)?;
    let ledger = &mut t.ledger;
    ledger.add_work("core.session_open", Work::Bytes((16 * n * m) as f64));
    if use_mr_gram(n, m) {
        let flops = mr_gram_flops((0..n).map(|_| m));
        ledger.add_work("stage.IntervalGram", Work::Flops(flops));
    }
    let mid = svd_flops(&d.m.mid(), rank)?;
    ledger.add_work("stage.MidpointSvd", Work::Flops(mid));
    let bounds = svd_flops(d.m.lo(), rank)? + svd_flops(d.m.hi(), rank)?;
    ledger.add_work("stage.BoundSvd", Work::Flops(bounds));
    Ok(())
}

/// Computed flops of `svd_truncated(a, k)`: the smaller-side Gram (a
/// symmetric rank-k update), its top-`k` eigensolve by the path a replay
/// takes, and the recovery product of the other factor.
fn svd_flops(a: &Matrix, k: usize) -> Result<f64, String> {
    let (n, c) = a.shape();
    let (small, large) = (n.min(c), n.max(c));
    let g = if c <= n { a.gram() } else { a.outer_gram() };
    let (_, rep) = sym_eigen_topk_report(&g, k.min(small), &TopkOptions::default())
        .map_err(|e| format!("svd replay: {e}"))?;
    let (s, l, k) = (small as f64, large as f64, k.min(small) as f64);
    Ok(l * s * (s + 1.0) + eigen_flops(small, k as usize, &rep) + 2.0 * l * s * k)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut w = Dense {
        cfg,
        digests: Digests::default(),
        accuracy: HashMap::new(),
        record_accuracy: true,
        tall_ms: Vec::new(),
    };
    // Set-up: deck entry 0 and one untimed warm-up op over it (one
    // decomposition of each shape per pair).
    repeated_setup(cfg.scale.setup_repeats, &mut out.setup_s, || {
        let roster = w.roster(0);
        w.op(&roster)?;
        Ok(())
    })?;
    w.tall_ms.clear();
    w.record_accuracy = false;

    let mut traced = cfg.trace.then(|| Traced::new(Ledger::new(Instant::now())));
    let start = Instant::now();
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let roster = w.roster(index);
        match traced.as_mut() {
            None => {
                if let Some((ms, open)) = out.record(w.op(&roster)) {
                    out.op_ms.push(ms);
                    out.open_ms.push(open);
                    out.busy_s += ms / 1e3;
                }
            }
            Some(t) => {
                // Each roster runs untraced and traced, alternating which
                // goes first, so the overhead ratio compares like inputs.
                let traced_first = index % 2 == 1;
                for traced_turn in [traced_first, !traced_first] {
                    if traced_turn {
                        if let Some(ms) = out.record(w.traced_op(&roster, t)) {
                            t.traced_ms += ms;
                        }
                    } else if let Some((ms, _)) = out.record(w.op(&roster)) {
                        t.untraced_ms += ms;
                        out.op_ms.push(ms);
                    }
                }
            }
        }
        index += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.traced = traced;
    out.accuracy = w.accuracy.values().copied().collect();
    out.digests_compared = w.digests.compared;

    let fastest = w.tall_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = w
        .tall_ms
        .iter()
        .filter(|&&x| x > SLOW_MODE_FACTOR * fastest)
        .count();
    out.notes = Json::obj()
        .with(
            "roster",
            "each op decomposes 2 paper-default + 2 tall matrices",
        )
        .with("tall_decompositions", w.tall_ms.len())
        .with("slow_mode_threshold_ms", SLOW_MODE_FACTOR * fastest)
        .with(
            "slow_mode_fraction",
            slow as f64 / w.tall_ms.len().max(1) as f64,
        );
    Ok(out)
}
