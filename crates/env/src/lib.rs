//! # ivmf-env
//!
//! The run settings of the workspace and the `IVMF_*` environment
//! variables they come from.
//!
//! The library has four behavioural settings, one [`Settings`] value:
//! the worker count, the shard prefetch depth, the interval-operator
//! flavour and the snapshot directory. No crate below the experiment
//! binaries reads the environment. Kernels ask [`Settings::current`],
//! which is the innermost [`Settings::scope`] on the calling thread or,
//! outside any scope, the process default: the environment, read once by
//! [`Settings::from_env`] on first use. `ivmf-par` re-enters the caller's
//! scope in every worker it spawns, so a scope governs every kernel that
//! runs under it.
//!
//! | variable | read by | meaning |
//! |---|---|---|
//! | [`THREADS`] | read once into [`Settings::threads`] | worker count for parallel kernels, and how many merge-group units of the interval-Gram fold run concurrently (default: available parallelism) |
//! | [`EXACT_INTERVAL`] | read once into [`Settings::exact_interval`] | `1`/`true` pins the exact four-product interval operator at every size |
//! | [`SNAPSHOT_DIR`] | read once into [`Settings::snapshot_dir`] | directory for automatic crash-safe pipeline snapshots: load-on-construct, save-on-drop (unset: snapshots only on explicit `snapshot_to`/`restore_from`) |
//! | [`PREFETCH`] | read once into [`Settings::prefetch`] | shard prefetch depth `0`/`1`/`2` (default 1): background-thread decode of the next shard(s) while the current one folds; `0` disables the thread |
//! | [`REPLICATES`] | `ivmf-bench`, through [`usize_var`] | seeded replicates the `exp_*` binaries average over (default 5) |
//! | [`SCALE`] | `ivmf-bench`, through [`f64_var_in`] | size multiplier in `(0, 1]` for the larger data sets |
//!
//! [`WORKERS`], [`WORKER_SPAWN`], [`SHARD_FORMAT`], [`SHARD_ROWS`],
//! [`SPARSE_THRESHOLD`], [`TOPK_EIGEN`], [`BENCH_SMOKE`], [`BENCH_OUT`]
//! and [`BENCH_ISVD_OUT`] are retired names that no crate reads.
//!
//! **Unset** variables always fall back to the documented default. A
//! variable that is **set but malformed** (`IVMF_THREADS=abc`,
//! `IVMF_SCALE=-1`) is a configuration error and aborts with a message
//! naming the variable, the offending value and the expected format —
//! silently running a sweep with a typo'd configuration is worse than
//! stopping. [`Settings::from_lookup`] returns the error as a value.
//!
//! ## Example
//!
//! ```
//! use ivmf_env::Settings;
//!
//! // Parsing needs no process environment...
//! let parsed = Settings::from_lookup(|name| (name == "IVMF_THREADS").then(|| "3".into()));
//! assert_eq!(parsed.unwrap().threads, 3);
//! let err = Settings::from_lookup(|name| (name == "IVMF_THREADS").then(|| "abc".into()));
//! assert!(err.unwrap_err().to_string().contains("IVMF_THREADS"));
//!
//! // ...and a scope overrides the process default on this thread only.
//! let one_thread = Settings { threads: 1, ..Settings::default() };
//! assert_eq!(one_thread.scope(|| Settings::current().threads), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::RefCell;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Worker count for the parallel kernels ([`Settings::threads`]);
/// positive integer.
pub const THREADS: &str = "IVMF_THREADS";

/// When truthy, pins the interval matrix product / Gram to the paper's
/// exact four-product envelope regardless of size
/// ([`Settings::exact_interval`]).
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

/// Directory for automatic crash-safe pipeline snapshots
/// ([`Settings::snapshot_dir`]): a `Pipeline` tries to restore a snapshot
/// of its stage cache and retained Gram accumulators from this directory
/// on construction and writes one atomically on drop. Unset disables the
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

/// Shard prefetch depth for the out-of-core ingest readers
/// ([`Settings::prefetch`]): `0` disables the background I/O thread
/// (pass-through), `1` (the default) double-buffers — shard `i+1` is read
/// and decoded while shard `i` folds — and `2` keeps one more shard in
/// flight. The fold order is strictly the file order regardless of
/// depth, so results are bitwise identical and the depth never enters a
/// stage-cache fingerprint.
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
/// Returned by [`Settings::from_lookup`]; the panicking readers format it
/// into their abort message. The display form names the variable, the
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

/// The four behavioural settings of the library.
///
/// Kernels read [`Settings::current`]. Outside any [`Settings::scope`]
/// that is the process default, read from the environment once
/// ([`Settings::from_env`]) on first use; inside one it is the scope's
/// value, on the calling thread and on every `ivmf-par` worker it
/// spawns. [`Settings::default`] is the value with every variable unset.
///
/// ```
/// use ivmf_env::Settings;
///
/// let exact = Settings { exact_interval: true, ..Settings::default() };
/// assert!(exact.scope(|| Settings::current().exact_interval));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settings {
    /// Worker count for the parallel kernels, and how many merge-group
    /// units of the interval-Gram fold run concurrently; at least 1.
    /// Results are bitwise identical at every count. From [`THREADS`];
    /// default: the machine's available parallelism.
    pub threads: usize,
    /// Shard prefetch depth of the disk-streamed sessions, `0..=2`.
    /// Results are bitwise identical at every depth. From [`PREFETCH`];
    /// default 1.
    pub prefetch: usize,
    /// Pins the interval product and Gram to the exact four-product
    /// envelope at every size; part of the pipeline stage fingerprint.
    /// From [`EXACT_INTERVAL`]; default off.
    pub exact_interval: bool,
    /// Directory a pipeline session restores from on construction and
    /// saves to on drop; `None` disables automatic snapshots. From
    /// [`SNAPSHOT_DIR`] (a blank value counts as unset); default `None`.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            threads: std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            prefetch: 1,
            exact_interval: false,
            snapshot_dir: None,
        }
    }
}

thread_local! {
    /// The innermost [`Settings::scope`] on this thread, if any.
    static SCOPED: RefCell<Option<Arc<Settings>>> = const { RefCell::new(None) };
}

/// The process default, read from the environment on first use.
static PROCESS: OnceLock<Arc<Settings>> = OnceLock::new();

impl Settings {
    /// The settings the environment names: [`Settings::from_lookup`] over
    /// the process environment (a variable that is not valid UTF-8 counts
    /// as unset). **Panics** with the [`EnvVarError`] message when a
    /// variable is set but malformed.
    pub fn from_env() -> Settings {
        or_abort(Settings::from_lookup(|name| std::env::var(name).ok()))
    }

    /// Parses the four variables, asking `lookup` for each by name
    /// (`None` = unset, which keeps the [`Settings::default`] value).
    ///
    /// - [`THREADS`]: an integer `>= 1`;
    /// - [`PREFETCH`]: an integer in `0..=2`;
    /// - [`EXACT_INTERVAL`]: `1`/`true` or `0`/`false`/empty
    ///   (case-insensitive);
    /// - [`SNAPSHOT_DIR`]: a path; blank counts as unset.
    ///
    /// Surrounding whitespace is ignored everywhere.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Settings, EnvVarError> {
        let mut settings = Settings::default();
        if let Some(raw) = lookup(THREADS) {
            settings.threads = parse_usize(THREADS, raw, 1)?;
        }
        if let Some(raw) = lookup(PREFETCH) {
            settings.prefetch = parse_prefetch(raw)?;
        }
        if let Some(raw) = lookup(EXACT_INTERVAL) {
            settings.exact_interval = parse_flag(EXACT_INTERVAL, raw)?;
        }
        if let Some(raw) = lookup(SNAPSHOT_DIR) {
            let v = raw.trim();
            settings.snapshot_dir = (!v.is_empty()).then(|| PathBuf::from(v));
        }
        Ok(settings)
    }

    /// The settings in force on this thread: the innermost
    /// [`Settings::scope`], or the process default. The value is shared,
    /// so reading a field allocates nothing.
    ///
    /// The process default is [`Settings::from_env`], read on the first
    /// call that is outside every scope and kept for the life of the
    /// process; a malformed variable panics on every such call.
    pub fn current() -> Arc<Settings> {
        SCOPED
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| Arc::clone(PROCESS.get_or_init(|| Arc::new(Settings::from_env()))))
    }

    /// Runs `f` with these settings in force on this thread, then restores
    /// what was in force before (also when `f` panics). Scopes nest; the
    /// innermost wins. `ivmf-par` re-enters the scope in the workers it
    /// spawns, so it governs every kernel `f` runs. Other threads are not
    /// affected.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Settings>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let outer = self.0.take();
                SCOPED.with(|s| *s.borrow_mut() = outer);
            }
        }
        let outer = SCOPED.with(|s| s.replace(Some(Arc::new(self.clone()))));
        let _restore = Restore(outer);
        f()
    }
}

/// The prefetch depth in force on this thread,
/// `Settings::current().prefetch`. Kept for the workload benchmark's
/// source, which records it; library code reads [`Settings::current`].
pub fn prefetch() -> usize {
    Settings::current().prefetch
}

/// Reads a `usize` variable, accepting only values `>= min` (the
/// experiment binaries' [`REPLICATES`]). Unset yields `default()`; a
/// set-but-malformed value **panics** with a message naming the variable
/// and the expected format.
pub fn usize_var(name: &str, min: usize, default: impl FnOnce() -> usize) -> usize {
    match std::env::var(name) {
        Ok(raw) => or_abort(parse_usize(name, raw, min)),
        Err(_) => default(),
    }
}

/// Reads an `f64` variable constrained to the half-open interval
/// `(lo, hi]` (the experiment binaries' [`SCALE`]). Unset yields
/// `default`; a set-but-malformed or out-of-range value **panics** with a
/// clear message.
pub fn f64_var_in(name: &str, lo: f64, hi: f64, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(raw) => or_abort(parse_f64_in(name, raw, lo, hi)),
        Err(_) => default,
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

/// The value, or a panic with the error's message.
fn or_abort<T>(parsed: Result<T, EnvVarError>) -> T {
    parsed.unwrap_or_else(|e| panic!("{e}"))
}

fn invalid(name: &str, raw: String, expected: String) -> EnvVarError {
    EnvVarError {
        name: name.to_string(),
        value: raw,
        expected,
    }
}

fn parse_usize(name: &str, raw: String, min: usize) -> Result<usize, EnvVarError> {
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= min => Ok(v),
        _ => Err(invalid(name, raw, format!("an integer >= {min}"))),
    }
}

fn parse_prefetch(raw: String) -> Result<usize, EnvVarError> {
    match raw.trim().parse::<usize>() {
        Ok(v) if v <= 2 => Ok(v),
        _ => Err(invalid(PREFETCH, raw, "an integer in 0..=2".to_string())),
    }
}

fn parse_flag(name: &str, raw: String) -> Result<bool, EnvVarError> {
    let v = raw.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(true)
    } else if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(false)
    } else {
        Err(invalid(name, raw, "1/true or 0/false".to_string()))
    }
}

fn parse_f64_in(name: &str, raw: String, lo: f64, hi: f64) -> Result<f64, EnvVarError> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v > lo && v <= hi => Ok(v),
        _ => Err(invalid(name, raw, format!("a number in ({lo}, {hi}]"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Settings::from_lookup`] over one set variable.
    fn parse_one(name: &str, raw: &str) -> Result<Settings, EnvVarError> {
        Settings::from_lookup(|n| (n == name).then(|| raw.to_string()))
    }

    #[test]
    fn usize_var_parses_and_defaults_when_unset() {
        assert_eq!(Settings::from_lookup(|_| None), Ok(Settings::default()));
        assert!(Settings::default().threads >= 1);
        assert_eq!(parse_one(THREADS, "4").unwrap().threads, 4);
        assert_eq!(parse_one(THREADS, " 12 ").unwrap().threads, 12);
        assert_eq!(parse_usize(REPLICATES, " 7 ".into(), 1), Ok(7));
    }

    #[test]
    fn usize_var_rejects_malformed_values_with_named_error() {
        for bad in ["abc", "0", "-3", "1.5", ""] {
            let err = parse_one(THREADS, bad).unwrap_err();
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(THREADS), "error must name the variable: {msg}");
            assert!(
                msg.contains("integer >= 1"),
                "error must state the expected format: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "IVMF_TEST_USIZE_PANIC: invalid value \"junk\"")]
    fn usize_var_panics_on_malformed_value() {
        or_abort(parse_usize("IVMF_TEST_USIZE_PANIC", "junk".into(), 1));
    }

    #[test]
    fn f64_var_enforces_open_closed_range() {
        assert_eq!(parse_f64_in(SCALE, "0.25".into(), 0.0, 1.0), Ok(0.25));
        assert_eq!(parse_f64_in(SCALE, "1.0".into(), 0.0, 1.0), Ok(1.0)); // hi is inclusive
        for bad in ["0.0", "1.5", "NaN", "junk"] {
            let err = parse_f64_in(SCALE, bad.into(), 0.0, 1.0).unwrap_err();
            assert!(err.to_string().contains("(0, 1]"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "IVMF_TEST_F64_PANIC: invalid value \"-2\"")]
    fn f64_var_panics_on_out_of_range_value() {
        or_abort(parse_f64_in("IVMF_TEST_F64_PANIC", "-2".into(), 0.0, 1.0));
    }

    #[test]
    fn flag_accepts_documented_spellings_only() {
        assert!(!Settings::default().exact_interval);
        for truthy in ["1", "true", "TRUE", " True "] {
            let parsed = parse_one(EXACT_INTERVAL, truthy).unwrap();
            assert!(parsed.exact_interval, "{truthy:?} should be truthy");
        }
        for falsy in ["0", "false", "FALSE", ""] {
            let parsed = parse_one(EXACT_INTERVAL, falsy).unwrap();
            assert!(!parsed.exact_interval, "{falsy:?} should be falsy");
        }
        for bad in ["yes", "on", "2"] {
            let err = parse_one(EXACT_INTERVAL, bad).unwrap_err();
            assert!(err.to_string().contains("1/true or 0/false"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "IVMF_EXACT_INTERVAL: invalid value \"maybe\"")]
    fn flag_panics_on_unrecognised_value() {
        or_abort(parse_one(EXACT_INTERVAL, "maybe"));
    }

    #[test]
    fn snapshot_dir_reads_the_documented_variable() {
        assert_eq!(Settings::default().snapshot_dir, None);
        let dir = parse_one(SNAPSHOT_DIR, " /tmp/ivmf-snaps ")
            .unwrap()
            .snapshot_dir;
        assert_eq!(dir, Some(PathBuf::from("/tmp/ivmf-snaps")));
        for blank in ["", "   "] {
            let dir = parse_one(SNAPSHOT_DIR, blank).unwrap().snapshot_dir;
            assert_eq!(dir, None, "{blank:?} should read as unset");
        }
    }

    #[test]
    fn prefetch_parses_and_defaults_when_unset() {
        assert_eq!(Settings::default().prefetch, 1);
        for (raw, depth) in [("0", 0usize), ("1", 1), ("2", 2), (" 2 ", 2)] {
            assert_eq!(parse_one(PREFETCH, raw).unwrap().prefetch, depth, "{raw:?}");
        }
        for bad in ["", "3", "-1", "abc", "1.5"] {
            let err = parse_one(PREFETCH, bad).unwrap_err();
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
    }

    #[test]
    fn from_env_reads_each_of_the_four_names() {
        // The only test in the workspace that writes the environment; no
        // other test in this binary reads it.
        let set = [
            (THREADS, "3"),
            (PREFETCH, "2"),
            (EXACT_INTERVAL, "1"),
            (SNAPSHOT_DIR, "/tmp/ivmf-snaps"),
        ];
        for (name, value) in set {
            std::env::set_var(name, value);
        }
        let read = Settings::from_env();
        for (name, _) in set {
            std::env::remove_var(name);
        }
        let want = Settings {
            threads: 3,
            prefetch: 2,
            exact_interval: true,
            snapshot_dir: Some(PathBuf::from("/tmp/ivmf-snaps")),
        };
        assert_eq!(read, want);
    }

    #[test]
    fn scopes_nest_restore_on_panic_and_stay_on_their_thread() {
        let outer = Settings::current();
        let two = Settings {
            threads: 2,
            ..Settings::default()
        };
        let three = Settings {
            threads: 3,
            prefetch: 0,
            ..Settings::default()
        };
        two.scope(|| {
            assert_eq!(Settings::current().threads, 2);
            three.scope(|| assert_eq!(*Settings::current(), three));
            assert_eq!(*Settings::current(), two);
            let other = std::thread::spawn(Settings::current).join().unwrap();
            assert_eq!(other, outer, "a scope must not leak to other threads");
            let unwound = std::panic::catch_unwind(|| three.scope(|| panic!("inside")));
            assert!(unwound.is_err());
            assert_eq!(
                *Settings::current(),
                two,
                "a panic must restore the outer scope"
            );
        });
        assert_eq!(Settings::current(), outer);
        assert_eq!(prefetch(), outer.prefetch);
    }
}
