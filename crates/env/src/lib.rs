//! # ivmf-env
//!
//! One home for every `IVMF_*` environment variable the workspace honours:
//! the canonical variable names and the (previously per-crate, ad-hoc)
//! parsing rules. Every consumer — the worker pool in `ivmf-par`, the
//! interval-product dispatch in `ivmf-interval`, the shard loaders in
//! `ivmf-data`, the experiment binaries in `ivmf-bench` — goes through
//! these helpers, so a variable is parsed the same way everywhere and the
//! README's environment table has a single source of truth to point at.
//!
//! | variable | consumed by | meaning |
//! |---|---|---|
//! | [`THREADS`] | `ivmf-par`, `ivmf-core` | worker count for parallel kernels, and how many merge-group units of the interval-Gram fold run concurrently (default: available parallelism) |
//! | [`EXACT_INTERVAL`] | `ivmf-interval` | `1`/`true` pins the exact four-product interval operator at every size |
//! | [`SNAPSHOT_DIR`] | `ivmf-core` | directory for automatic crash-safe pipeline snapshots: load-on-construct, save-on-drop (unset: snapshots only on explicit `snapshot_to`/`restore_from`) |
//! | [`PREFETCH`] | `ivmf-data`, `ivmf-core` | shard prefetch depth `0`/`1`/`2` (default 1): background-thread decode of the next shard(s) while the current one folds; `0` disables the thread |
//! | [`REPLICATES`] | `ivmf-bench` | seeded replicates the `exp_*` binaries average over (default 5) |
//! | [`SCALE`] | `ivmf-bench` | size multiplier in `(0, 1]` for the larger data sets |
//! | [`BENCH_SMOKE`] | retired, listed by perfbench | single-sample mode of the deleted micro-benchmarks |
//! | [`BENCH_OUT`] | retired, listed by perfbench | report path of the deleted kernel micro-benchmark |
//! | [`BENCH_ISVD_OUT`] | retired, listed by perfbench | report path of the deleted pipeline micro-benchmark |
//!
//! [`WORKERS`], [`WORKER_SPAWN`], [`SHARD_FORMAT`], [`SHARD_ROWS`],
//! [`SPARSE_THRESHOLD`], [`TOPK_EIGEN`] and the three `BENCH_*` names are
//! retired names that no crate reads.
//!
//! **Unset** variables always fall back to the documented default. A
//! variable that is **set but malformed** (`IVMF_THREADS=abc`,
//! `IVMF_SCALE=-1`) is a configuration error and aborts with a message
//! naming the variable, the offending value and the expected format —
//! silently running a sweep with a typo'd configuration is worse than
//! stopping. The `try_*` variants return the error as a value for callers
//! that want to handle it themselves.
//!
//! ## Example
//!
//! ```
//! // Unset variables fall back to the supplied default...
//! std::env::remove_var("IVMF_DOCTEST_ONLY");
//! assert_eq!(ivmf_env::usize_var("IVMF_DOCTEST_ONLY", 1, || 5), 5);
//! // ...well-formed values are honoured...
//! std::env::set_var("IVMF_DOCTEST_ONLY", "3");
//! assert_eq!(ivmf_env::usize_var("IVMF_DOCTEST_ONLY", 1, || 5), 3);
//! // ...and malformed values are rejected with a clear error.
//! std::env::set_var("IVMF_DOCTEST_ONLY", "abc");
//! let err = ivmf_env::try_usize_var("IVMF_DOCTEST_ONLY", 1).unwrap_err();
//! assert!(err.to_string().contains("IVMF_DOCTEST_ONLY"));
//! std::env::remove_var("IVMF_DOCTEST_ONLY");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// Worker count for the parallel kernels (`ivmf-par`); positive integer.
pub const THREADS: &str = "IVMF_THREADS";

/// When truthy, pins the interval matrix product / Gram to the paper's
/// exact four-product envelope regardless of size (`ivmf-interval`).
pub const EXACT_INTERVAL: &str = "IVMF_EXACT_INTERVAL";

/// Retired: overrode the density cutoff at which dense in-memory
/// pipeline inputs take the sparse CSR Gram kernel. The cutoff is now
/// `ivmf_core`'s `DEFAULT_SPARSE_THRESHOLD` alone (both kernels give
/// bitwise-identical results). No crate reads it; the name stays for the
/// workload benchmark's source, which lists (and clears) it.
pub const SPARSE_THRESHOLD: &str = "IVMF_SPARSE_THRESHOLD";

/// Retired: overrode the choice between the certified top-k Lanczos
/// eigensolver and the dense `tred2`/`tql2` solve, which is now made by
/// the input's size alone. No crate reads it; the name stays for the
/// workload benchmark's source, which lists (and clears) it.
pub const TOPK_EIGEN: &str = "IVMF_TOPK_EIGEN";

/// Directory for automatic crash-safe pipeline snapshots (`ivmf-core`):
/// when set, every `Pipeline` tries to restore a snapshot of its stage
/// cache and retained Gram accumulators from this directory on
/// construction and writes one atomically on drop. Unset disables the
/// automatic path; explicit `snapshot_to`/`restore_from` always work.
pub const SNAPSHOT_DIR: &str = "IVMF_SNAPSHOT_DIR";

/// Retired: named the worker count of a multi-process Gram fan-out that
/// no longer exists. No crate reads it; the interval-Gram fold now runs
/// its merge-group units on [`THREADS`] threads. The name stays so run
/// records can still list (and clear) it.
pub const WORKERS: &str = "IVMF_WORKERS";

/// Retired with [`WORKERS`]: selected child processes for that fan-out.
/// No crate reads it.
pub const WORKER_SPAWN: &str = "IVMF_WORKER_SPAWN";

/// Retired: chose between a decimal text shard container and the binary
/// "ivmf shards v1" container. The binary container is now the only
/// shard format, and no crate reads this variable; the name stays for the
/// workload benchmark's source, which lists (and clears) it.
pub const SHARD_FORMAT: &str = "IVMF_SHARD_FORMAT";

/// Retired: set the default rows per shard of two dense-to-sharded
/// constructors that only a test called. Shard size never changed
/// results. No crate reads it; the name stays for the workload
/// benchmark's source, which lists (and clears) it.
pub const SHARD_ROWS: &str = "IVMF_SHARD_ROWS";

/// Shard prefetch depth for the out-of-core ingest readers in
/// `ivmf-data` (routed by `ivmf-core`): `0` disables the background I/O
/// thread (pass-through), `1` (the default) double-buffers — shard `i+1`
/// is read and decoded while shard `i` folds — and `2` keeps one more
/// shard in flight. The fold order is strictly the file order regardless
/// of depth, so results are bitwise identical and the knob never enters
/// a stage-cache fingerprint.
pub const PREFETCH: &str = "IVMF_PREFETCH";

/// Number of seeded replicates the `exp_*` binaries average over.
pub const REPLICATES: &str = "IVMF_REPLICATES";

/// Size multiplier in `(0, 1]` applied to the larger experiment data sets.
pub const SCALE: &str = "IVMF_SCALE";

/// Retired: ran every micro-benchmark with a single sample. The
/// micro-benchmarks are deleted (the workload benchmark in `perfbench/` is
/// the only one) and no crate reads it; the name stays for the workload
/// benchmark's source, which lists (and clears) it.
pub const BENCH_SMOKE: &str = "IVMF_BENCH_SMOKE";

/// Retired with [`BENCH_SMOKE`]: set the kernel micro-benchmark's report
/// path.
pub const BENCH_OUT: &str = "IVMF_BENCH_OUT";

/// Retired with [`BENCH_SMOKE`]: set the pipeline micro-benchmark's report
/// path.
pub const BENCH_ISVD_OUT: &str = "IVMF_BENCH_ISVD_OUT";

/// A set-but-malformed `IVMF_*` environment variable.
///
/// Produced by the `try_*` parsing helpers; the panicking helpers format
/// it into their abort message. The display form names the variable, the
/// offending value and the expected format, so a typo'd configuration is
/// diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvVarError {
    /// The variable name (e.g. `IVMF_THREADS`).
    pub name: String,
    /// The rejected value, verbatim.
    pub value: String,
    /// Human-readable description of what would have been accepted.
    pub expected: String,
}

impl fmt::Display for EnvVarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: invalid value {:?} (expected {})",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvVarError {}

/// Reads a `usize` variable: `Ok(None)` when unset, `Ok(Some(v))` for a
/// well-formed value `>= min`, and [`EnvVarError`] when the variable is set
/// but unparsable or below the minimum.
pub fn try_usize_var(name: &str, min: usize) -> Result<Option<usize>, EnvVarError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= min => Ok(Some(v)),
        _ => Err(EnvVarError {
            name: name.to_string(),
            value: raw,
            expected: format!("an integer >= {min}"),
        }),
    }
}

/// Reads a `usize` variable, accepting only values `>= min`. Unset yields
/// `default()`; a set-but-malformed value **panics** with a message naming
/// the variable and the expected format (use [`try_usize_var`] to handle
/// the error as a value).
pub fn usize_var(name: &str, min: usize, default: impl FnOnce() -> usize) -> usize {
    match try_usize_var(name, min) {
        Ok(v) => v.unwrap_or_else(default),
        Err(e) => panic!("{e}"),
    }
}

/// Reads an `f64` variable constrained to the half-open interval
/// `(lo, hi]`: `Ok(None)` when unset, the value when well-formed, an
/// [`EnvVarError`] when set but unparsable or out of range.
pub fn try_f64_var_in(name: &str, lo: f64, hi: f64) -> Result<Option<f64>, EnvVarError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    match raw.trim().parse::<f64>() {
        Ok(v) if v > lo && v <= hi => Ok(Some(v)),
        _ => Err(EnvVarError {
            name: name.to_string(),
            value: raw,
            expected: format!("a number in ({lo}, {hi}]"),
        }),
    }
}

/// Reads an `f64` variable constrained to the half-open interval
/// `(lo, hi]`. Unset yields `default`; a set-but-malformed or out-of-range
/// value **panics** with a clear message (use [`try_f64_var_in`] to handle
/// the error as a value).
pub fn f64_var_in(name: &str, lo: f64, hi: f64, default: f64) -> f64 {
    match try_f64_var_in(name, lo, hi) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => panic!("{e}"),
    }
}

/// Reads a boolean switch: `Ok(Some(true))` for `1`/`true`,
/// `Ok(Some(false))` for `0`/`false`/the empty string (all
/// case-insensitive, surrounding whitespace ignored), `Ok(None)` when
/// unset, and [`EnvVarError`] for anything else (`yes`, `on`, …).
pub fn try_flag(name: &str) -> Result<Option<bool>, EnvVarError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    let v = raw.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(Some(true))
    } else if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(Some(false))
    } else {
        Err(EnvVarError {
            name: name.to_string(),
            value: raw,
            expected: "1/true or 0/false".to_string(),
        })
    }
}

/// True when the variable is set to `1` or (case-insensitively) `true`.
/// Unset, `0`, `false` and the empty string are false; any other value
/// **panics** with a clear message (use [`try_flag`] to handle the error
/// as a value). Every boolean `IVMF_*` switch uses this rule.
pub fn flag(name: &str) -> bool {
    match try_flag(name) {
        Ok(v) => v.unwrap_or(false),
        Err(e) => panic!("{e}"),
    }
}

/// Reads a string variable verbatim (`None` when unset or non-UTF-8).
pub fn string_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The configured snapshot directory: `IVMF_SNAPSHOT_DIR` when set and
/// non-empty (whitespace-only values count as unset — an empty directory
/// name is always a misconfiguration, never a useful path), `None`
/// otherwise. The directory is created on first use by the snapshot
/// writer, not here.
pub fn snapshot_dir() -> Option<std::path::PathBuf> {
    let raw = string_var(SNAPSHOT_DIR)?;
    let v = raw.trim();
    if v.is_empty() {
        None
    } else {
        Some(std::path::PathBuf::from(v))
    }
}

/// The shard container format. Retained only for the workload
/// benchmark's source, which names it when it creates its container; the
/// "ivmf shards v1" binary container is the only format and no crate
/// reads [`SHARD_FORMAT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFormat {
    /// The "ivmf shards v1" binary container: length-prefixed checksummed
    /// records with raw little-endian `f64`/`usize` runs.
    Binary,
}

/// The configured shard prefetch depth: `IVMF_PREFETCH` as an integer in
/// `0..=2`, defaulting to 1 (double-buffered) when unset and panicking on
/// a malformed or out-of-range value like every other `IVMF_*` knob. See
/// [`try_prefetch`] for the non-panicking form.
pub fn prefetch() -> usize {
    match try_prefetch() {
        Ok(v) => v.unwrap_or(1),
        Err(e) => panic!("{e}"),
    }
}

/// [`prefetch`] returning the validation error as a value instead of
/// panicking: `Ok(None)` when unset, the depth when a well-formed integer
/// in `0..=2`, and [`EnvVarError`] otherwise.
pub fn try_prefetch() -> Result<Option<usize>, EnvVarError> {
    let Ok(raw) = std::env::var(PREFETCH) else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(v) if v <= 2 => Ok(Some(v)),
        _ => Err(EnvVarError {
            name: PREFETCH.to_string(),
            value: raw,
            expected: "an integer in 0..=2".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name: tests in one binary may run
    // concurrently and the process environment is shared.

    #[test]
    fn usize_var_parses_and_defaults_when_unset() {
        const V: &str = "IVMF_TEST_USIZE";
        std::env::remove_var(V);
        assert_eq!(usize_var(V, 1, || 7), 7);
        std::env::set_var(V, "4");
        assert_eq!(usize_var(V, 1, || 7), 4);
        std::env::set_var(V, " 12 ");
        assert_eq!(usize_var(V, 1, || 7), 12);
        std::env::remove_var(V);
    }

    #[test]
    fn usize_var_rejects_malformed_values_with_named_error() {
        const V: &str = "IVMF_TEST_USIZE_BAD";
        for bad in ["abc", "0", "-3", "1.5", ""] {
            std::env::set_var(V, bad);
            let err = try_usize_var(V, 1).unwrap_err();
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(V), "error must name the variable: {msg}");
            assert!(
                msg.contains("integer >= 1"),
                "error must state the expected format: {msg}"
            );
        }
        std::env::remove_var(V);
        assert_eq!(try_usize_var(V, 1), Ok(None));
    }

    #[test]
    #[should_panic(expected = "IVMF_TEST_USIZE_PANIC: invalid value \"junk\"")]
    fn usize_var_panics_on_malformed_value() {
        const V: &str = "IVMF_TEST_USIZE_PANIC";
        std::env::set_var(V, "junk");
        let _ = usize_var(V, 1, || 7);
    }

    #[test]
    fn f64_var_enforces_open_closed_range() {
        const V: &str = "IVMF_TEST_F64";
        std::env::remove_var(V);
        assert_eq!(f64_var_in(V, 0.0, 1.0, 0.5), 0.5);
        std::env::set_var(V, "0.25");
        assert_eq!(f64_var_in(V, 0.0, 1.0, 0.5), 0.25);
        std::env::set_var(V, "1.0");
        assert_eq!(f64_var_in(V, 0.0, 1.0, 0.5), 1.0); // hi is inclusive
        for bad in ["0.0", "1.5", "NaN", "junk"] {
            std::env::set_var(V, bad);
            let err = try_f64_var_in(V, 0.0, 1.0).unwrap_err();
            assert!(err.to_string().contains("(0, 1]"), "{err}");
        }
        std::env::remove_var(V);
    }

    #[test]
    #[should_panic(expected = "IVMF_TEST_F64_PANIC: invalid value \"-2\"")]
    fn f64_var_panics_on_out_of_range_value() {
        const V: &str = "IVMF_TEST_F64_PANIC";
        std::env::set_var(V, "-2");
        let _ = f64_var_in(V, 0.0, 1.0, 0.5);
    }

    #[test]
    fn flag_accepts_documented_spellings_only() {
        const V: &str = "IVMF_TEST_FLAG";
        std::env::remove_var(V);
        assert!(!flag(V));
        for truthy in ["1", "true", "TRUE", " True "] {
            std::env::set_var(V, truthy);
            assert!(flag(V), "{truthy:?} should be truthy");
        }
        for falsy in ["0", "false", "FALSE", ""] {
            std::env::set_var(V, falsy);
            assert!(!flag(V), "{falsy:?} should be falsy");
        }
        for bad in ["yes", "on", "2"] {
            std::env::set_var(V, bad);
            let err = try_flag(V).unwrap_err();
            assert!(err.to_string().contains("1/true or 0/false"), "{err}");
        }
        std::env::remove_var(V);
    }

    #[test]
    #[should_panic(expected = "IVMF_TEST_FLAG_PANIC: invalid value \"maybe\"")]
    fn flag_panics_on_unrecognised_value() {
        const V: &str = "IVMF_TEST_FLAG_PANIC";
        std::env::set_var(V, "maybe");
        let _ = flag(V);
    }

    #[test]
    fn string_var_passthrough() {
        const V: &str = "IVMF_TEST_STRING";
        std::env::remove_var(V);
        assert_eq!(string_var(V), None);
        std::env::set_var(V, "out.json");
        assert_eq!(string_var(V).as_deref(), Some("out.json"));
        std::env::remove_var(V);
    }

    #[test]
    fn snapshot_dir_reads_the_documented_variable() {
        // This test owns IVMF_SNAPSHOT_DIR within this binary.
        std::env::remove_var(SNAPSHOT_DIR);
        assert_eq!(snapshot_dir(), None);
        std::env::set_var(SNAPSHOT_DIR, "/tmp/ivmf-snaps");
        assert_eq!(
            snapshot_dir(),
            Some(std::path::PathBuf::from("/tmp/ivmf-snaps"))
        );
        for blank in ["", "   "] {
            std::env::set_var(SNAPSHOT_DIR, blank);
            assert_eq!(snapshot_dir(), None, "{blank:?} should read as unset");
        }
        std::env::remove_var(SNAPSHOT_DIR);
    }

    #[test]
    fn prefetch_parses_and_defaults_when_unset() {
        // This test owns IVMF_PREFETCH within this binary.
        std::env::remove_var(PREFETCH);
        assert_eq!(prefetch(), 1);
        assert_eq!(try_prefetch(), Ok(None));
        for (raw, depth) in [("0", 0usize), ("1", 1), ("2", 2), (" 2 ", 2)] {
            std::env::set_var(PREFETCH, raw);
            assert_eq!(prefetch(), depth, "{raw:?}");
        }
        for bad in ["", "3", "-1", "abc", "1.5"] {
            std::env::set_var(PREFETCH, bad);
            let err = try_prefetch().unwrap_err();
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(
                msg.contains(PREFETCH),
                "error must name the variable: {msg}"
            );
            assert!(
                msg.contains("0..=2"),
                "error must state the expected format: {msg}"
            );
        }
        std::env::remove_var(PREFETCH);
    }
}
