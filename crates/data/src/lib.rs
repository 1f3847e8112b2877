//! # ivmf-data
//!
//! Synthetic workload generators for every experiment in the paper.
//!
//! The paper evaluates on (i) synthetic uniform interval matrices with
//! controlled density/intensity (Table 1), (ii) synthetic matrices
//! anonymized through value generalization at four levels, (iii) the ORL
//! face corpus turned into interval data through pixel-neighbourhood
//! statistics, and (iv) rating data sets (MovieLens-100K, Ciao, Epinions)
//! turned into interval data through per-user/per-item rating spreads.
//!
//! The real ORL / MovieLens / Ciao / Epinions data cannot be redistributed
//! with this repository, so this crate generates **synthetic stand-ins with
//! the same shape, scale, sparsity and interval-construction rules** (see
//! DESIGN.md, "Substitutions"). Every generator takes an explicit seeded
//! RNG so experiments are reproducible.
//!
//! Modules:
//!
//! * [`synthetic`] — uniform interval matrices (Table 1 parameters), plus
//!   the CSR-native power-law (Zipf) generator
//!   [`synthetic::generate_power_law`] for rating-matrix-shaped sparse
//!   workloads at million-row scale.
//! * [`anonymize`] — generalization-based anonymized matrices (L1–L4
//!   levels, high/medium/low privacy mixtures).
//! * [`faces`] — ORL-like face corpus and the neighbourhood-std interval
//!   construction of supplementary F.1.
//! * [`ratings`] — MovieLens-like and Ciao/Epinions-like rating data plus
//!   the interval constructions of supplementary F.2. The collaborative
//!   filtering matrices assemble **directly into CSR** from the rating
//!   triple stream ([`ratings::cf_interval_csr`],
//!   [`ratings::cf_scalar_csr`]) — no dense `users × items` buffer is
//!   ever materialized; the dense-returning functions are thin
//!   `to_dense()` wrappers for small fixtures.
//! * [`split`] — train/test splitting helpers.
//! * [`stream`] — chunked disk loaders for row-sharded interval matrices
//!   (write, shard-by-shard reads, and a one-pass out-of-core interval
//!   Gram), for dense rows and for sparse CSR rows
//!   ([`stream::CsrShardWriter`], [`stream::CsrShardReader`]) that store
//!   and stream only the nonzero entries.
//! * [`binfmt`] — the bit-exact binary shard container ("ivmf shards
//!   v1"), the only shard file format: length-prefixed, FNV-checksummed
//!   records holding raw little-endian `f64`/`usize` runs, used by every
//!   shard writer and reader in [`stream`].
//! * [`prefetch`] — a double-buffered background-thread shard reader
//!   ([`prefetch::Prefetch`] over either shard type, depth from `IVMF_PREFETCH`) that overlaps decode of shard *i+1*
//!   with the Gram fold of shard *i* while preserving strict in-order
//!   delivery, so results stay bitwise identical.
//! * [`atomic`] — crash-safe write-to-temp-then-rename file commits used
//!   by every on-disk artifact (matrix files, shards, snapshots, bench
//!   baselines).
//! * [`fault`] — deterministic fault-injection `Read`/`Write` wrappers
//!   (fail / truncate / bit-flip at a scheduled byte offset) backing the
//!   crash-recovery test suites.
//! * [`fnv`] — the workspace's single word-parallel FNV-1a implementation
//!   (record checksums, frame checksums, snapshot digests).
//!
//! ## Example
//!
//! Generate one replicate of the paper's default synthetic workload
//! (Table 1's bold row) and check the knobs took effect:
//!
//! ```
//! use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let config = SyntheticConfig::paper_default()
//!     .with_shape(12, 30)
//!     .with_zero_fraction(0.5);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let m = generate_uniform(&config, &mut rng);
//!
//! assert_eq!(m.shape(), (12, 30));
//! assert!(m.is_proper());
//! // Roughly half the cells are zero and the non-zeros carry intervals.
//! assert!((m.zero_fraction() - 0.5).abs() < 0.15);
//! assert!(m.interval_density() > 0.9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod anonymize;
pub mod atomic;
pub mod binfmt;
pub mod faces;
pub mod fault;
pub mod fnv;
pub mod prefetch;
pub mod ratings;
pub mod split;
mod stage;
pub mod stream;
pub mod synthetic;
