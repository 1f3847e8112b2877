//! # ivmf-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation section, and the shared runner they use. The
//! workspace-level integration suites and examples are attached to this
//! crate too.
//!
//! Each binary in `src/bin/` reproduces one artefact:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `exp_fig3_fig5` | Figures 3 & 5 — matched min/max cosine similarities before/after alignment and after ISVD4's recomputation |
//! | `exp_fig6` | Figure 6 — accuracy of ISVD0–4 × targets a/b/c (+ LP) and the execution-time breakdown, default synthetic config |
//! | `exp_table2` | Table 2(a)–(e) — option-b accuracy sweeps over interval density / intensity / matrix density / shape / rank |
//! | `exp_fig7` | Figure 7 — anonymized data (high/medium/low privacy) × rank |
//! | `exp_fig8` | Figure 8 — ORL-like faces: reconstruction RMSE, 1-NN F1, k-means NMI vs rank |
//! | `exp_table3` | Table 3 — clustering accuracy & time: scalar vs interval vectors vs ISVD2-b(r=20) |
//! | `exp_fig9` | Figure 9 — Ciao/Epinions/MovieLens-like reconstruction accuracy × rank × target |
//! | `exp_fig10` | Figure 10 — collaborative-filtering RMSE of PMF / I-PMF / AI-PMF vs rank |
//!
//! All binaries honour the environment variables documented in README.md
//! so the full grids stay laptop-friendly: [`runner::ExperimentOptions`]
//! reads `IVMF_REPLICATES` and `IVMF_SCALE`, and the library reads
//! `IVMF_THREADS`, `IVMF_EXACT_INTERVAL`, `IVMF_PREFETCH` and
//! `IVMF_SNAPSHOT_DIR` once, on first use, into its process-default
//! [`ivmf_env::Settings`]. This crate is, with `ivmf-env`, the only one
//! whose source reads the environment.
//!
//! Run them with `cargo run --release -p ivmf-bench --bin <name>`.
//! Performance is measured by the workload benchmark in `perfbench/`
//! (declared in `BENCHMARK.json`), not by this crate.
//!
//! ## Example
//!
//! The shared runner evaluates one method on one interval matrix exactly
//! like the experiment binaries do:
//!
//! ```
//! use ivmf_bench::{evaluate_algorithm, AlgoSpec, Table};
//! use ivmf_bench::table::fmt3;
//! use ivmf_core::{DecompositionTarget, IsvdAlgorithm};
//! use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let m = generate_uniform(&SyntheticConfig::paper_default().with_shape(12, 9), &mut rng);
//! let spec = AlgoSpec::Isvd(IsvdAlgorithm::Isvd4, DecompositionTarget::IntervalCore);
//! let outcome = evaluate_algorithm(&m, 6, spec);
//!
//! let mut table = Table::new(vec!["algo", "H-mean"]);
//! table.add_row(vec![spec.name(), fmt3(outcome.harmonic_mean)]);
//! assert!(table.render().contains("ISVD4-b"));
//! assert!(outcome.harmonic_mean > 0.5);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod runner;
pub mod table;

pub use runner::{
    evaluate_algorithm, evaluate_roster, evaluate_roster_breakdown, evaluate_roster_with_cache,
    replicate_roster_means, standalone_equivalent_timings, AlgoSpec, EvalOutcome,
    ExperimentOptions,
};
pub use table::Table;
