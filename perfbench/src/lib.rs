//! The ivmf workload benchmark.
//!
//! Three seeded workloads drive the public API end to end
//! ([`workloads`]); a plain run reports the end-to-end metrics and checks
//! every output, a traced run times each layer from the benchmark's side
//! and builds a per-layer ledger against ceilings measured on the same
//! machine ([`ledger`], [`probe`]). See `perfbench/README.md`.

pub mod check;
pub mod decor;
pub mod harness;
pub mod json;
pub mod ledger;
pub mod machine;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workloads;
