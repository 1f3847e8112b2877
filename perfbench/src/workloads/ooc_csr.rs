//! `ooc_csr`: out-of-core sparse ratings.
//!
//! Why: each op reads the whole container eight times (one content-hash
//! pass when the session opens, then one pass per bound product of the
//! Gram, the left recovery, the aligned solve and the right tightening),
//! so shard decode, prefetch, the buffer pool, the sparse Gram and the
//! streamed sparse products do most of the work, while the 256×256
//! eigensolves certify in milliseconds.
//!
//! Input: a Zipf power-law CSR interval matrix of 200k×256 with 16 stored
//! entries per row (~6% density), written once at set-up as the binary
//! `ivmf shards v1` container in 4096-row shards (49 of them).
//!
//! One op: open a `CsrShardReader`, build `Pipeline::new_streaming_csr_send`
//! (prefetch at the default depth), run ISVD2, ISVD3 and ISVD4, then check
//! accuracy on a fixed sample of 2048 rows (the full reconstruction would be
//! a dense 200k×256 matrix; fewer rows make the accuracy swing by seed).
//!
//! Not the ROADMAP's 160k×1024 ×100 nnz shape: there both bound eigensolves
//! fall back to the dense solver at about 8 s each, so one layer would take
//! most of an op of 20 s or more, too long for a steady distribution.

use std::path::PathBuf;
use std::time::Instant;

use ivmf_core::{IntervalSvd, IsvdAlgorithm, IsvdConfig, IsvdResult, Pipeline};
use ivmf_data::prefetch::PrefetchCsrSource;
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use ivmf_env::ShardFormat;
use ivmf_interval::{use_mr_gram, IntervalMatrix};
use ivmf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::{check_accuracy, check_factors, Digests};
use crate::decor::{csr_shard_bytes, DecodeTimer, WaitTimer};
use crate::harness::{
    book_gram_route, ms_since, pool_counts, repeated_setup, sub_seed, Outcome, RunConfig, Traced,
};
use crate::json::Json;
use crate::ledger::{Ledger, RunStamp, SpanSink, Stamp, UnitLog, Work};

pub const NAME: &str = "ooc_csr";
pub const WHY: &str = "Out-of-core 200k x 256 Zipf CSR ratings streamed from the binary shard \
container, eight file passes per op: decode, prefetch, buffer pool, sparse Gram and streamed \
sparse products do the work.";

const SHARDS: u64 = 2;
/// Sampled rows of a rank-20 fit to random sparse ratings reconstruct at
/// about 0.28-0.3; a broken product or solve lands far below.
const ACCURACY_FLOOR: f64 = 0.2;
const ALGORITHMS: [IsvdAlgorithm; 3] = [
    IsvdAlgorithm::Isvd2,
    IsvdAlgorithm::Isvd3,
    IsvdAlgorithm::Isvd4,
];

/// The container written at set-up and what the checks and the work model
/// need to know about it.
struct Container {
    path: PathBuf,
    shards: u64,
    nnz: usize,
    /// Σ c(c+1) over rows with c stored entries (the sparse Gram's work).
    gram_row_term: f64,
    decoded_bytes: f64,
    sample_rows: Vec<usize>,
    sample: IntervalMatrix,
    write_ms: f64,
}

fn build(cfg: &RunConfig) -> Result<Container, String> {
    let s = &cfg.scale;
    let path = cfg.work_dir.join("ooc_csr.shards");
    let io = |e: std::io::Error| format!("container: {e}");
    let step = (s.ooc_rows / s.ooc_sample_rows).max(1);
    let sample_rows: Vec<usize> = (0..s.ooc_sample_rows).map(|i| i * step).collect();
    let mut sample_lo = Matrix::zeros(sample_rows.len(), s.ooc_cols);
    let mut sample_hi = Matrix::zeros(sample_rows.len(), s.ooc_cols);

    let mut write_ms = 0.0;
    let t = Instant::now();
    let mut writer =
        CsrShardWriter::create_with_format(&path, s.ooc_rows, s.ooc_cols, ShardFormat::Binary)
            .map_err(io)?;
    write_ms += ms_since(t);
    let (mut shards, mut nnz, mut gram_row_term, mut decoded_bytes) = (0u64, 0, 0.0, 0.0);
    let mut first = 0;
    while first < s.ooc_rows {
        let rows = s.ooc_shard_rows.min(s.ooc_rows - first);
        let config =
            PowerLawConfig::ratings_like(rows, s.ooc_cols).with_nnz_per_row(s.ooc_nnz_per_row);
        let mut rng = SmallRng::seed_from_u64(sub_seed(cfg.seed, SHARDS, shards));
        let block = generate_power_law(&config, &mut rng);
        for i in 0..rows {
            let (cols, lo, hi) = block.row_entries(i);
            gram_row_term += (cols.len() * (cols.len() + 1)) as f64;
            if let Ok(k) = sample_rows.binary_search(&(first + i)) {
                for ((&c, &l), &h) in cols.iter().zip(lo).zip(hi) {
                    sample_lo[(k, c)] = l;
                    sample_hi[(k, c)] = h;
                }
            }
        }
        nnz += block.nnz();
        decoded_bytes += csr_shard_bytes(&block) as f64;
        let t = Instant::now();
        writer.push_shard(&block).map_err(io)?;
        write_ms += ms_since(t);
        shards += 1;
        first += rows;
    }
    let t = Instant::now();
    writer.finish().map_err(io)?;
    write_ms += ms_since(t);
    Ok(Container {
        path,
        shards,
        nnz,
        gram_row_term,
        decoded_bytes,
        sample_rows,
        sample: IntervalMatrix::from_bounds(sample_lo, sample_hi).map_err(|e| e.to_string())?,
        write_ms,
    })
}

struct Ooc<'c> {
    cfg: &'c RunConfig,
    c: Container,
    digests: Digests,
    accuracy: Option<f64>,
}

impl<'c> Ooc<'c> {
    fn config(&self) -> IsvdConfig {
        IsvdConfig::new(self.cfg.scale.rank)
    }

    fn reader(&self) -> Result<CsrShardReader, String> {
        CsrShardReader::open(&self.c.path, self.cfg.scale.ooc_shard_rows)
            .map_err(|e| format!("open container: {e}"))
    }

    /// The factorization restricted to the sampled rows.
    fn sampled(&self, svd: &IntervalSvd) -> Result<IntervalSvd, String> {
        let rows = &self.c.sample_rows;
        let r = svd.rank();
        let pick = |m: &Matrix| Matrix::from_fn(rows.len(), r, |i, j| m[(rows[i], j)]);
        Ok(IntervalSvd {
            target: svd.target,
            u: IntervalMatrix::from_bounds(pick(svd.u.lo()), pick(svd.u.hi()))
                .map_err(|e| e.to_string())?,
            sigma: svd.sigma.clone(),
            v: svd.v.clone(),
        })
    }

    fn check(&mut self, results: &[IsvdResult]) -> Result<(), String> {
        let mut acc = 0.0;
        for r in results {
            check_factors(&r.factors)?;
            acc += check_accuracy(&self.c.sample, &self.sampled(&r.factors)?, ACCURACY_FLOOR)?;
        }
        self.digests.check(0, &results[2].factors)?;
        self.accuracy.get_or_insert(acc / results.len() as f64);
        Ok(())
    }

    /// One op; returns (latency, session open).
    fn op(&mut self) -> Result<(f64, f64), String> {
        let t0 = Instant::now();
        let reader = self.reader()?;
        let mut p = Pipeline::new_streaming_csr_send(Box::new(reader), self.config())
            .map_err(|e| format!("session: {e}"))?;
        let open = ms_since(t0);
        let mut results = Vec::with_capacity(3);
        for alg in ALGORITHMS {
            results.push(p.run(alg).map_err(|e| format!("{alg}: {e}"))?);
        }
        self.check(&results)?;
        let ms = ms_since(t0);
        // Dropping the session joins the prefetch thread; not part of the op.
        drop(p);
        Ok((ms, open))
    }

    /// The traced twin of [`Ooc::op`]: the session is assembled exactly as
    /// `new_streaming_csr_send` assembles it, with a decode timer inside the
    /// prefetcher and a wait timer around it.
    fn traced_op(&mut self, t: &mut Traced) -> Result<f64, String> {
        let sink = SpanSink::default();
        let (h0, m0) = pool_counts();
        let mut unit = UnitLog::new(Instant::now());
        let reader = self.reader()?;
        let decode = DecodeTimer::new(Box::new(reader), sink.clone());
        let prefetch = PrefetchCsrSource::new(Box::new(decode), ivmf_env::prefetch());
        let wait = WaitTimer::new(Box::new(prefetch), sink.clone());
        let mut p = Pipeline::new_streaming_csr(Box::new(wait), self.config())
            .map_err(|e| format!("session: {e}"))?;
        unit.stamps.push(Stamp {
            layer: "core.session_open",
            start: unit.start,
            end: Instant::now(),
        });
        let mut results = Vec::with_capacity(3);
        for alg in ALGORITHMS {
            let start = Instant::now();
            let r = p.run(alg).map_err(|e| format!("{alg}: {e}"))?;
            unit.runs.push(RunStamp {
                label: alg.name(),
                start,
                end: Instant::now(),
                stages: r.stages.clone(),
            });
            results.push(r);
        }
        unit.time("bench.check", || self.check(&results))?;
        unit.end = Instant::now();
        let (h1, m1) = pool_counts();
        t.pool_hits += h1 - h0;
        t.pool_misses += m1 - m0;
        t.ledger.absorb(&unit, sink.take());
        t.cache_hits += p.cache().hits();
        t.cache_misses += p.cache().misses();

        let (rank, cols, rows) = (
            self.cfg.scale.rank,
            self.cfg.scale.ooc_cols,
            self.cfg.scale.ooc_rows,
        );
        let gram = p.interval_gram().map_err(|e| format!("gram replay: {e}"))?;
        book_gram_route(t, &gram, self.c.nnz, rank)?;
        let l = &mut t.ledger;
        l.add_work("core.session_open", Work::Bytes(self.c.decoded_bytes));
        if use_mr_gram(rows, cols) {
            l.add_work(
                "stage.IntervalGram",
                Work::Flops(2.0 * self.c.gram_row_term),
            );
        }
        t.ops += 1;
        drop(p);
        Ok((unit.end - unit.start).as_secs_f64() * 1e3)
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // Set-up: write the container, then one untimed warm-up op.
    let mut w = repeated_setup(cfg.scale.setup_repeats, &mut out.setup_s, || {
        let mut w = Ooc {
            cfg,
            c: build(cfg)?,
            digests: Digests::default(),
            accuracy: None,
        };
        w.op()?;
        Ok(w)
    })?;

    let mut traced = cfg.trace.then(|| {
        let mut t = Traced::new(Ledger::new(Instant::now()));
        t.shards_in_file = w.c.shards;
        t.write_ms = w.c.write_ms;
        t
    });
    let start = Instant::now();
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        match traced.as_mut() {
            None => {
                if let Some((ms, open)) = out.record(w.op()) {
                    out.op_ms.push(ms);
                    out.open_ms.push(open);
                    out.busy_s += ms / 1e3;
                }
            }
            Some(t) => {
                // An untraced and a traced op per turn, alternating which
                // goes first, so the overhead ratio compares like with like.
                let traced_first = index % 2 == 1;
                for traced_turn in [traced_first, !traced_first] {
                    if traced_turn {
                        if let Some(ms) = out.record(w.traced_op(t)) {
                            t.traced_ms += ms;
                        }
                    } else if let Some((ms, _)) = out.record(w.op()) {
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
    out.accuracy = w.accuracy.into_iter().collect();
    out.digests_compared = w.digests.compared;
    out.notes = Json::obj()
        .with("rows", cfg.scale.ooc_rows)
        .with("cols", cfg.scale.ooc_cols)
        .with("nnz", w.c.nnz)
        .with("shards", w.c.shards)
        .with(
            "container_bytes",
            std::fs::metadata(&w.c.path).map_or(0, |m| m.len()),
        )
        .with("sampled_rows", w.c.sample_rows.len());
    std::fs::remove_file(&w.c.path).ok();
    Ok(out)
}
