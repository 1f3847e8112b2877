//! Per-stage wall-clock timings of an ISVD run.
//!
//! Figure 6(b) of the paper breaks the execution time of each algorithm into
//! *preprocessing* (building the interval Gram matrix), *decomposition*
//! (SVD / eigendecomposition of the bound matrices), *alignment* (ILSA) and
//! *renormalization* (target construction). Every ISVD driver in this crate
//! fills in a [`StageTimings`] so the benchmark harness can regenerate that
//! breakdown.

use std::time::Duration;

/// Wall-clock duration of each ISVD pipeline stage, plus the stage-cache
/// accounting of the run that produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Interval Gram-matrix construction / input averaging.
    pub preprocessing: Duration,
    /// SVD or symmetric eigendecomposition of the bound matrices, plus the
    /// recovery/recomputation of factor matrices.
    pub decomposition: Duration,
    /// Latent semantic alignment (ILSA).
    pub alignment: Duration,
    /// Target construction: column renormalization, core rescaling and
    /// interval repair.
    pub renormalization: Duration,
    /// Memoizable pipeline stages served from the [`StageCache`] in this
    /// run (their wall-clock cost is therefore *not* in the slots above).
    ///
    /// [`StageCache`]: crate::pipeline::StageCache
    pub cache_hits: u32,
    /// Memoizable pipeline stages actually computed in this run.
    pub cache_misses: u32,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.preprocessing + self.decomposition + self.alignment + self.renormalization
    }

    /// Adds another timing breakdown stage-by-stage (useful for averaging
    /// over repeated runs). Cache hit/miss counters are summed as well.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.preprocessing += other.preprocessing;
        self.decomposition += other.decomposition;
        self.alignment += other.alignment;
        self.renormalization += other.renormalization;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Scales the breakdown by `1 / n` (completing an average over `n`
    /// accumulated runs). Cache counters are averaged with integer
    /// division — exact when every accumulated run had the same hit/miss
    /// profile, which is the common case for repeated identical runs.
    pub fn divide(&self, n: u32) -> StageTimings {
        if n == 0 {
            return *self;
        }
        StageTimings {
            preprocessing: self.preprocessing / n,
            decomposition: self.decomposition / n,
            alignment: self.alignment / n,
            renormalization: self.renormalization / n,
            cache_hits: self.cache_hits / n,
            cache_misses: self.cache_misses / n,
        }
    }

    /// The stages as `(name, seconds)` pairs, in pipeline order.
    pub fn as_seconds(&self) -> [(&'static str, f64); 4] {
        [
            ("preprocessing", self.preprocessing.as_secs_f64()),
            ("decomposition", self.decomposition.as_secs_f64()),
            ("alignment", self.alignment.as_secs_f64()),
            ("renormalization", self.renormalization.as_secs_f64()),
        ]
    }
}

/// Small helper that measures a closure and records the elapsed time into
/// the chosen stage slot.
pub(crate) fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_stages() {
        let t = StageTimings {
            preprocessing: Duration::from_millis(1),
            decomposition: Duration::from_millis(2),
            alignment: Duration::from_millis(3),
            renormalization: Duration::from_millis(4),
            ..StageTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn accumulate_and_divide() {
        let mut acc = StageTimings::default();
        let t = StageTimings {
            preprocessing: Duration::from_millis(10),
            decomposition: Duration::from_millis(20),
            alignment: Duration::from_millis(30),
            renormalization: Duration::from_millis(40),
            cache_hits: 4,
            cache_misses: 2,
        };
        acc.accumulate(&t);
        acc.accumulate(&t);
        assert_eq!(acc.cache_hits, 8);
        let avg = acc.divide(2);
        assert_eq!(avg, t);
        assert_eq!(avg.divide(0), avg);
    }

    #[test]
    fn timed_records_elapsed_time_and_returns_value() {
        let mut slot = Duration::ZERO;
        let v = timed(&mut slot, || 41 + 1);
        assert_eq!(v, 42);
        // Elapsed time is non-negative (trivially true) and was written.
        assert!(slot >= Duration::ZERO);
    }

    #[test]
    fn as_seconds_layout() {
        let t = StageTimings::default();
        let s = t.as_seconds();
        assert_eq!(s[0].0, "preprocessing");
        assert_eq!(s[3].0, "renormalization");
    }
}
