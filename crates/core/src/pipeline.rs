//! Staged decomposition pipeline with shared-stage caching.
//!
//! The five ISVD strategies are not five independent programs: they are
//! compositions of a small set of named, memoizable **stages** (Figure 4 of
//! the paper). ISVD2, ISVD3 and ISVD4 all start from the same interval Gram
//! matrix and the same two bound eigendecompositions; ISVD3 and ISVD4 share
//! the whole aligned interval solve; ISVD2 and ISVD3/4 share the ILSA
//! alignment of the Gram eigenvectors. This module makes that structure
//! explicit:
//!
//! * [`StageId`] names every memoizable stage and [`DecompPlan`] lists, per
//!   algorithm, the stages it executes (in order);
//! * [`StageCache`] memoizes stage outputs, keyed on the *content* of the
//!   input matrix and a per-stage fingerprint of the arithmetic-relevant
//!   configuration fields that stage consumes (rank, matcher, inversion
//!   thresholds, the `IVMF_EXACT_INTERVAL` interval-operator flavour — see
//!   [`stage_fingerprint`]) — never on the algorithm or decomposition
//!   target, so different algorithms and targets share freely, and
//!   rank-independent stages like the interval Gram survive rank sweeps;
//! * [`Pipeline`] executes plans through the cache, and the batched drivers
//!   [`run_all`] / [`run_all_batch`] evaluate all five algorithms on one (or
//!   many) matrices with every shared stage computed **exactly once**.
//!
//! Caching changes *when* a stage runs, never its arithmetic: every stage is
//! a pure function of its inputs, so a batched run is bitwise identical to
//! five standalone [`isvd`](crate::isvd::isvd) calls (asserted by the
//! workspace's `pipeline_equivalence` suite). Per-run cache accounting is
//! reported in [`StageTimings::cache_hits`] /
//! [`StageTimings::cache_misses`] and per-stage in
//! [`IsvdResult::stages`].
//!
//! ## Truncating eigendecompositions
//!
//! The spectral stages only ever consume the leading `rank` pairs, so
//! MidpointSvd / BoundSvd (via `svd_truncated`) and BoundEigenLo/Hi (via
//! `bound_eigen`) route through the certified top-k eigensolver
//! (`ivmf_linalg::sym_eigen_topk`), which picks the Lanczos or the dense
//! kernel from the bound's size alone and certifies every answer to the
//! oracle residual tolerance, with automatic fallback to the full solve.
//!
//! ## Row-sharded and streaming inputs
//!
//! A session's matrix can be supplied dense, as an in-memory
//! [`ShardedIntervalMatrix`], or as a lazy [`ShardSource`]
//! ([`Pipeline::new_streaming`]) that materializes one shard at a time.
//! Every Gram-route stage folds the shards through the chunk-realigned
//! streaming accumulators of `ivmf_linalg::streaming` /
//! [`StreamingIntervalGram`], so **results are bitwise identical across
//! input kinds and shard layouts** — `run_all_sharded` over four shards
//! equals [`run_all`] over the dense concatenation bit for bit. Cache keys
//! use a shard-layout-blind content id ([`matrix_id`]), so dense and
//! sharded sessions share entries.
//!
//! Sparse CSR inputs extend the same contract to million-user rating
//! matrices: the session is generic over the shard representation
//! ([`IntervalShard`]), so a session over CSR shards
//! ([`Pipeline::new_sharded`] / [`Pipeline::from_shards`] /
//! [`Pipeline::new_streaming_csr`]) routes every Gram-route stage through
//! the sparse streaming kernels of `ivmf_linalg::sparse`, which fold over
//! stored entries only and are **bitwise identical** to the dense kernels
//! on the same logical matrix, so ISVD2–4 run out-of-core on inputs whose
//! dense form could never be materialized. Dense-only stages (ISVD0's
//! midpoint SVD, ISVD1's bound SVDs) densify sparse inputs only below
//! [`DENSE_STAGE_MAX_ENTRIES`] and return a clear error above it — never a
//! silent densification.
//! Dense in-memory inputs whose density is at or below
//! [`DEFAULT_SPARSE_THRESHOLD`] take the sparse Gram path automatically;
//! the swap is pure kernel selection with bitwise-identical results, so
//! cache ids are unaffected.
//!
//! On top of this, [`Pipeline::append_rows`] serves growing workloads:
//! the session retains its Gram accumulator, folds only the appended
//! shards' contributions (`O(Δn·m²)` instead of `O(n·m²)`), seeds the
//! refreshed Gram into the cache under the extended matrix's id, and the
//! changed id invalidates exactly the downstream stages. Incremental
//! results are bitwise equal to a cold recompute over the extended
//! matrix.
//!
//! ## Example
//!
//! ```
//! use ivmf_core::pipeline::{run_all, DecompPlan};
//! use ivmf_core::{IsvdAlgorithm, IsvdConfig};
//! use ivmf_interval::IntervalMatrix;
//! use ivmf_linalg::Matrix;
//!
//! let lo = Matrix::from_rows(&[vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 2.0]]);
//! let hi = Matrix::from_rows(&[vec![5.0, 2.0, 1.0], vec![2.0, 4.0, 1.5], vec![0.5, 2.0, 3.0]]);
//! let m = IntervalMatrix::from_bounds(lo, hi).unwrap();
//!
//! // One batched run of all five algorithms: the interval Gram matrix and
//! // the bound eigendecompositions are computed once and shared.
//! let results = run_all(&m, &IsvdConfig::new(2)).unwrap();
//! assert_eq!(results.len(), 5);
//! // ISVD3 (index 3) reuses ISVD2's Gram, eigen and alignment stages.
//! assert!(results[3].timings.cache_hits >= 4);
//! // The executed stages of each run match the algorithm's published plan.
//! let plan = DecompPlan::for_algorithm(IsvdAlgorithm::Isvd4);
//! let executed: Vec<_> = results[4].stages.iter().map(|e| e.stage).collect();
//! assert_eq!(executed, plan.stages);
//! ```

use std::any::Any;
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ivmf_align::{ilsa, Alignment};
use ivmf_data::fnv::{fnv1a_word, FNV_OFFSET};
use ivmf_data::prefetch::{PrefetchCsrSource, PrefetchSource};
use ivmf_interval::{
    use_mr_gram, BoundBlocks, CsrIntervalShard, IntervalError, IntervalMatrix, IntervalShard,
    Result as IResult, ShardSource, ShardWalk, ShardedIntervalMatrix, StreamingIntervalGram,
};
use ivmf_linalg::cond::is_well_conditioned;
use ivmf_linalg::lu::invert;
use ivmf_linalg::pinv::{PinvGram, TallPinv, PINV_ROW_ALIGN};
use ivmf_linalg::streaming::GROUP_ROWS;
use ivmf_linalg::svd::{svd_truncated, Svd};
use ivmf_linalg::{matmul_left_streamed_t, matmul_streamed, ColBlocks, Dispatch, Matrix};

use crate::isvd::{
    bound_eigen, invert_factor_transpose, scale_left_factor, BoundEigen, IsvdAlgorithm, IsvdConfig,
    IsvdResult,
};
use crate::sigma_inverse::sigma_inverse_matrix;
use crate::target::{DecompositionTarget, FactorBounds};
use crate::timing::{timed, StageTimings};
use crate::{IvmfError, Result};

// ---------------------------------------------------------------------------
// Stage identities and plans.
// ---------------------------------------------------------------------------

/// A named, memoizable stage of the decomposition pipeline.
///
/// Every variant is a pure function of the input matrix and the
/// configuration fingerprint (plus outputs of earlier stages), which is what
/// makes it safe to cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Collapse every interval entry to its midpoint (ISVD0).
    Midpoint,
    /// Truncated SVD of the midpoint matrix (ISVD0).
    MidpointSvd,
    /// Independent truncated SVDs of the two bound matrices (ISVD1).
    BoundSvd,
    /// ILSA between the right singular vectors of the bound SVDs (ISVD1).
    SvdAlign,
    /// Interval Gram matrix `A† = M†ᵀ M†` (ISVD2/3/4).
    IntervalGram,
    /// Truncated eigendecomposition of the Gram minimum bound (ISVD2/3/4).
    BoundEigenLo,
    /// Truncated eigendecomposition of the Gram maximum bound (ISVD2/3/4).
    BoundEigenHi,
    /// Per-bound left-factor recovery `U = M V Σ⁻¹` (ISVD2).
    LeftRecover,
    /// ILSA between the Gram bound eigenvectors (ISVD2/3/4).
    GramAlign,
    /// Aligned interval-algebra solve `U† = M† ((V†)ᵀ)⁻¹ (Σ†)⁻¹`
    /// (ISVD3/4).
    AlignedSolve,
    /// Recomputation of the right factor `V† = ((Σ†)⁻¹ (U†)⁻¹ M†)ᵀ`
    /// (ISVD4).
    RightTighten,
}

impl StageId {
    /// Human-readable stage name (also used in the bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            StageId::Midpoint => "midpoint",
            StageId::MidpointSvd => "midpoint_svd",
            StageId::BoundSvd => "bound_svd",
            StageId::SvdAlign => "svd_align",
            StageId::IntervalGram => "interval_gram",
            StageId::BoundEigenLo => "bound_eigen_lo",
            StageId::BoundEigenHi => "bound_eigen_hi",
            StageId::LeftRecover => "left_recover",
            StageId::GramAlign => "gram_align",
            StageId::AlignedSolve => "aligned_solve",
            StageId::RightTighten => "right_tighten",
        }
    }

    /// Which of the paper's Figure 6b wall-clock slots this stage's compute
    /// time is attributed to. [`StageId::AlignedSolve`] splits its time
    /// between `alignment` (the ILSA application) and `decomposition` (the
    /// interval solve); it is listed under the slot receiving the bulk.
    pub fn paper_slot(&self) -> &'static str {
        match self {
            StageId::Midpoint | StageId::IntervalGram => "preprocessing",
            StageId::MidpointSvd
            | StageId::BoundSvd
            | StageId::BoundEigenLo
            | StageId::BoundEigenHi
            | StageId::LeftRecover
            | StageId::AlignedSolve
            | StageId::RightTighten => "decomposition",
            StageId::SvdAlign | StageId::GramAlign => "alignment",
        }
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The ordered list of memoizable stages one algorithm executes.
///
/// Per-run work that is never cached (applying an alignment to factor
/// matrices, target assembly) is not listed: it is cheap, depends on the
/// requested target, and reuses nothing across algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompPlan {
    /// The algorithm this plan belongs to.
    pub algorithm: IsvdAlgorithm,
    /// Memoizable stages in execution order.
    pub stages: &'static [StageId],
}

impl DecompPlan {
    /// The stage composition of the given algorithm (Figure 4).
    pub fn for_algorithm(algorithm: IsvdAlgorithm) -> DecompPlan {
        use StageId::*;
        let stages: &'static [StageId] = match algorithm {
            IsvdAlgorithm::Isvd0 => &[Midpoint, MidpointSvd],
            IsvdAlgorithm::Isvd1 => &[BoundSvd, SvdAlign],
            IsvdAlgorithm::Isvd2 => &[
                IntervalGram,
                BoundEigenLo,
                BoundEigenHi,
                LeftRecover,
                GramAlign,
            ],
            IsvdAlgorithm::Isvd3 => &[
                IntervalGram,
                BoundEigenLo,
                BoundEigenHi,
                GramAlign,
                AlignedSolve,
            ],
            IsvdAlgorithm::Isvd4 => &[
                IntervalGram,
                BoundEigenLo,
                BoundEigenHi,
                GramAlign,
                AlignedSolve,
                RightTighten,
            ],
        };
        DecompPlan { algorithm, stages }
    }

    /// Plans for all five algorithms, in paper order.
    pub fn all() -> [DecompPlan; 5] {
        IsvdAlgorithm::all().map(DecompPlan::for_algorithm)
    }

    /// True when this plan shares at least one stage with `other` (the
    /// "sharing matrix" of the architecture docs).
    pub fn shares_with(&self, other: &DecompPlan) -> bool {
        self.algorithm != other.algorithm && self.stages.iter().any(|s| other.stages.contains(s))
    }
}

/// One executed (or cache-served) stage of a run, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Which stage.
    pub stage: StageId,
    /// True when the output came from the [`StageCache`] instead of being
    /// computed.
    pub cache_hit: bool,
    /// Wall-clock time spent obtaining the output (≈ 0 on a hit).
    pub duration: Duration,
}

// ---------------------------------------------------------------------------
// Cache keying.
// ---------------------------------------------------------------------------

/// Incrementally extensible content identity of an interval matrix.
///
/// Two FNV-1a streams (folded a whole 64-bit word per step,
/// [`fnv1a_word`]) — one over the lower-bound words, one over the
/// upper-bound words, both in row order — are combined with the shape into
/// the final id. Keeping the two streams separate is what makes the id
/// extensible by appended rows: [`Pipeline::append_rows`] continues both
/// streams with the new rows' words and re-derives the id in `O(Δn·m)`,
/// and the result equals hashing the extended matrix from scratch.
///
/// The shard layout never enters the hash, so a sharded matrix has the
/// same id as its dense concatenation — deliberate, because every stage
/// output is bitwise shard-layout-invariant.
///
/// The words are the representation's [`IntervalShard::content_words`]:
/// sparse (CSR) sessions hash the stored entries only, under a sparse
/// domain tag. The stream is equally shard-layout-blind, but it is a
/// *representation-level* identity: hashing the implicit zeros of a
/// million-user matrix would cost `O(nm)` and defeat out-of-core
/// operation, so a sparse session deliberately never shares cache entries
/// with a dense session over the same logical matrix.
#[derive(Debug, Clone)]
struct ContentHash {
    rows: usize,
    cols: usize,
    sparse: bool,
    h_lo: u64,
    h_hi: u64,
}

impl ContentHash {
    fn new<S: IntervalShard>(cols: usize) -> Self {
        ContentHash {
            rows: 0,
            cols,
            sparse: S::CSR,
            h_lo: FNV_OFFSET,
            h_hi: FNV_OFFSET,
        }
    }

    /// Folds the next row block (row order across calls).
    fn push<S: IntervalShard>(&mut self, shard: &S) {
        debug_assert_eq!(S::CSR, self.sparse, "rows of the other representation");
        let (h_lo, h_hi) = (&mut self.h_lo, &mut self.h_hi);
        shard.content_words(|w| fnv1a_word(h_lo, w), |w| fnv1a_word(h_hi, w));
        self.rows += shard.rows();
    }

    fn id(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_word(&mut h, self.rows as u64);
        fnv1a_word(&mut h, self.cols as u64);
        if self.sparse {
            fnv1a_word(&mut h, 0xc5a5); // domain separator: CSR content stream
        }
        fnv1a_word(&mut h, self.h_lo);
        fnv1a_word(&mut h, self.h_hi);
        h
    }
}

/// Content identity of an interval matrix — a dense matrix, or a
/// [`ShardedIntervalMatrix`] of either representation: an FNV-1a hash over
/// its shape and the IEEE-754 bit patterns of its bounds. Two matrices
/// with identical contents share stage outputs even across separate
/// [`Pipeline`] sessions on one cache — regardless of shard layout, since
/// only row-ordered content enters the hash; hashing is `O(nm)` (`O(nnz)`
/// for CSR), negligible against the `O(nm²)` Gram stage it guards.
///
/// CSR matrices hash their stored entries under a sparse domain tag, so
/// their id never equals the dense id of the same logical matrix (see
/// [`IntervalShard::content_words`]): a session fixes its representation
/// up front, so cross-representation sharing has nothing to serve.
///
/// Identity is the 64-bit hash alone — a hit does not re-compare the
/// inputs, so two *distinct* matrices whose hashes collide (probability
/// ≈ 2⁻⁶⁴ per pair) would silently share entries on one cache. That
/// residual risk is accepted; callers that cannot tolerate it should use
/// one cache per matrix, as [`run_all_batch`] does.
pub fn matrix_id<S: IntervalShard>(m: &impl AsRef<[S]>) -> u64 {
    let shards = m.as_ref();
    let mut c = ContentHash::new::<S>(shards.first().map_or(0, S::cols));
    shards.iter().for_each(|shard| c.push(shard));
    c.id()
}

/// Fingerprint of every configuration field that influences stage
/// *arithmetic*: rank, matcher, the inversion thresholds, and the
/// interval-operator flavour pinned by `IVMF_EXACT_INTERVAL`. The algorithm
/// selector and the decomposition target are deliberately excluded — stage
/// outputs do not depend on them, which is exactly what lets a batched run
/// share stages across algorithms and targets.
///
/// Cache keys refine this further: each stage is keyed by
/// [`stage_fingerprint`], which folds in only the fields that stage (or its
/// inputs) actually consumes, so e.g. the rank-independent interval Gram is
/// shared across a rank sweep on one cache.
pub fn config_fingerprint(config: &IsvdConfig) -> u64 {
    stage_mask_fingerprint(config, true, true, true, true)
}

/// Per-stage configuration fingerprint: folds in only the fields the stage
/// consumes, directly or through its inputs.
///
/// | stage | depends on |
/// |---|---|
/// | `Midpoint` | — |
/// | `MidpointSvd`, `BoundSvd` | rank |
/// | `SvdAlign` | rank, matcher |
/// | `IntervalGram` | interval-operator flavour (`IVMF_EXACT_INTERVAL`) |
/// | `BoundEigenLo/Hi`, `LeftRecover` | flavour, rank |
/// | `GramAlign` | flavour, rank, matcher |
/// | `AlignedSolve`, `RightTighten` | flavour, rank, matcher, thresholds |
///
/// The practical payoff is rank sweeps: the `O(nm²)` Gram stage is keyed
/// without the rank, so evaluating several ranks on one matrix over one
/// cache computes it once.
///
/// No kernel choice enters a fingerprint: the eigensolver and the Gram
/// kernel are picked from the input alone, and their answers are bitwise
/// the same (the two Gram kernels) or certified to the oracle residual
/// tolerance (the two eigensolvers). The interval-operator flavour does
/// enter: it changes stage arithmetic (two enclosures of different
/// widths).
pub fn stage_fingerprint(stage: StageId, config: &IsvdConfig) -> u64 {
    let (rank, matcher, thresholds, flavour) = match stage {
        StageId::Midpoint => (false, false, false, false),
        StageId::MidpointSvd | StageId::BoundSvd => (true, false, false, false),
        StageId::SvdAlign => (true, true, false, false),
        StageId::IntervalGram => (false, false, false, true),
        StageId::BoundEigenLo | StageId::BoundEigenHi | StageId::LeftRecover => {
            (true, false, false, true)
        }
        StageId::GramAlign => (true, true, false, true),
        StageId::AlignedSolve | StageId::RightTighten => (true, true, true, true),
    };
    stage_mask_fingerprint(config, rank, matcher, thresholds, flavour)
}

fn stage_mask_fingerprint(
    config: &IsvdConfig,
    rank: bool,
    matcher: bool,
    thresholds: bool,
    flavour: bool,
) -> u64 {
    let mut h = FNV_OFFSET;
    if rank {
        fnv1a_word(&mut h, config.rank as u64);
    }
    if matcher {
        fnv1a_word(
            &mut h,
            match config.matcher {
                ivmf_align::Matcher::Greedy => 1,
                ivmf_align::Matcher::Hungarian => 2,
                ivmf_align::Matcher::StableMarriage => 3,
            },
        );
    }
    if thresholds {
        fnv1a_word(&mut h, config.condition_threshold.to_bits());
        fnv1a_word(&mut h, config.pinv_cutoff.to_bits());
    }
    if flavour {
        fnv1a_word(&mut h, 0xf1a6); // domain separator: flavour field present
        fnv1a_word(&mut h, u64::from(ivmf_interval::exact_interval_forced()));
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StageKey {
    pub(crate) matrix: u64,
    pub(crate) fingerprint: u64,
    pub(crate) stage: StageId,
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// Per-run log threaded through the stage executors.
#[derive(Default)]
struct RunLog {
    timings: StageTimings,
    events: Vec<StageEvent>,
}

/// Memoizes stage outputs across runs, algorithms and targets.
///
/// Keys are `(matrix id, config fingerprint, stage)` — see [`matrix_id`] and
/// [`config_fingerprint`]. Values are reference-counted, so a hit costs a
/// pointer clone. The cache never alters arithmetic: a stage output is only
/// reused for bit-identical inputs under a bit-identical configuration.
#[derive(Default)]
pub struct StageCache {
    entries: HashMap<StageKey, Rc<dyn Any>>,
    hits: u64,
    misses: u64,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache::default()
    }

    /// Number of memoized stage outputs currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total stage lookups served from the cache since construction (or the
    /// last [`StageCache::clear`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total stage lookups that had to compute since construction (or the
    /// last [`StageCache::clear`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every memoized output and resets the hit/miss counters. Used
    /// between matrices of a large batch to bound memory.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Inserts a stage output computed outside the normal miss path (the
    /// incremental Gram refresh of [`Pipeline::append_rows`], or a
    /// validated snapshot entry restored by
    /// [`Pipeline::restore_from`]). Seeding moves no hit/miss counter: the
    /// subsequent lookup that consumes the entry reports a hit, which is
    /// exactly the accounting signal "this run did not recompute the
    /// stage".
    pub(crate) fn seed(&mut self, key: StageKey, value: Rc<dyn Any>) {
        self.entries.insert(key, value);
    }

    /// Read access to the raw entry map for the snapshot writer.
    pub(crate) fn entries(&self) -> &HashMap<StageKey, Rc<dyn Any>> {
        &self.entries
    }

    /// Drops every entry keyed to the given matrix id. Used by
    /// [`Pipeline::append_rows`] to bound memory: after an append the
    /// session's id changes, so entries under the old id can never hit
    /// again from this session.
    fn prune_matrix(&mut self, matrix: u64) {
        self.entries.retain(|k, _| k.matrix != matrix);
    }

    /// Looks up `key`, computing and memoizing on a miss. The compute
    /// closure receives the run's [`StageTimings`] so it can attribute its
    /// wall-clock time to the paper's slots; on a hit nothing is attributed
    /// (no work was done) and only the hit counter moves.
    fn get_or_compute<T: Any>(
        &mut self,
        key: StageKey,
        run: &mut RunLog,
        compute: impl FnOnce(&mut StageTimings) -> Result<T>,
    ) -> Result<Rc<T>> {
        let start = Instant::now();
        if let Some(value) = self.entries.get(&key) {
            if let Ok(typed) = Rc::clone(value).downcast::<T>() {
                self.hits += 1;
                run.timings.cache_hits += 1;
                run.events.push(StageEvent {
                    stage: key.stage,
                    cache_hit: true,
                    duration: start.elapsed(),
                });
                return Ok(typed);
            }
        }
        let value = Rc::new(compute(&mut run.timings)?);
        self.misses += 1;
        run.timings.cache_misses += 1;
        self.entries.insert(key, Rc::clone(&value) as Rc<dyn Any>);
        run.events.push(StageEvent {
            stage: key.stage,
            cache_hit: false,
            duration: start.elapsed(),
        });
        Ok(value)
    }
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache")
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Stage payloads.
// ---------------------------------------------------------------------------

/// Output of the [`StageId::BoundSvd`] stage: independent truncated SVDs of
/// the two bound matrices.
#[derive(Debug, Clone)]
pub struct BoundSvds {
    /// Truncated SVD of the minimum bound.
    pub lo: Svd,
    /// Truncated SVD of the maximum bound.
    pub hi: Svd,
}

/// Output of the [`StageId::AlignedSolve`] stage (shared by ISVD3/ISVD4):
/// the aligned minimum-side right factor and singular values, the
/// interval-algebra left factor, and the scalar core inverse ISVD4 reuses.
#[derive(Debug, Clone)]
pub(crate) struct AlignedSolveOut {
    pub(crate) v_lo: Matrix,
    pub(crate) sigma_lo: Vec<f64>,
    pub(crate) u: IntervalMatrix,
    pub(crate) sigma_inv: Matrix,
}

// ---------------------------------------------------------------------------
// The pipeline session.
// ---------------------------------------------------------------------------

/// The matrix behind a [`Pipeline`] session, in the shard representation
/// `S` fixed at construction: borrowed shards (a dense matrix is one), an
/// owned sharded matrix (the form appends extend), or a lazy shard source
/// that materializes one shard at a time (out-of-core inputs).
enum PipelineInput<'m, S> {
    Borrowed(&'m [S]),
    Owned(ShardedIntervalMatrix<S>),
    Lazy(RefCell<Box<dyn ShardSource<S> + 'm>>),
}

impl<'m, S: IntervalShard> PipelineInput<'m, S> {
    fn shape(&self) -> (usize, usize) {
        match self {
            PipelineInput::Borrowed(shards) => (
                shards.iter().map(S::rows).sum(),
                shards.first().map_or(0, S::cols),
            ),
            PipelineInput::Owned(m) => m.shape(),
            PipelineInput::Lazy(src) => src.borrow().shape(),
        }
    }

    /// One pass over the shards in row order: borrowed from an in-memory
    /// input, moved out of a lazy source (rewound first).
    fn walk<'a>(&'a self, f: &mut dyn FnMut(Piece<'a, S>) -> IResult<()>) -> IResult<()> {
        let shards = match self {
            PipelineInput::Borrowed(shards) => shards,
            PipelineInput::Owned(m) => m.shards(),
            PipelineInput::Lazy(src) => {
                let mut src = src.borrow_mut();
                src.rewind()?;
                while let Some(shard) = src.pull()? {
                    f(Piece::Owned(shard))?;
                }
                return Ok(());
            }
        };
        shards.iter().try_for_each(|shard| f(Piece::whole(shard)))
    }
}

/// One pass over the input's shards, in row order; a lazy source's
/// freshly decoded shards go back to the buffer pool once `f` has seen
/// them.
impl<S: IntervalShard> ShardWalk<S> for PipelineInput<'_, S> {
    fn shape(&self) -> (usize, usize) {
        PipelineInput::shape(self)
    }
    fn for_each_shard(&self, f: &mut dyn FnMut(&S) -> IResult<()>) -> IResult<()> {
        self.walk(&mut |piece| piece.visit(f))
    }
}

impl<S: IntervalShard> std::fmt::Debug for PipelineInput<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            PipelineInput::Borrowed(_) => "Borrowed",
            PipelineInput::Owned(_) => "Owned",
            PipelineInput::Lazy(_) => "Lazy",
        };
        let repr = if S::CSR { "csr" } else { "dense" };
        let (rows, cols) = self.shape();
        write!(f, "{kind}({repr}, {rows}x{cols})")
    }
}

/// Ceiling on the dense entry count (`rows × cols`) a dense-only stage may
/// materialize from a *sparse* session: 2²² entries ≈ 32 MiB per bound
/// matrix. ISVD0's midpoint SVD and ISVD1's bound SVDs inherently need the
/// dense matrix; below the ceiling a sparse input densifies (memoized per
/// session), above it the stage fails with a clear error instead of
/// silently materializing gigabytes. The Gram-route stages of ISVD2–4 are
/// unaffected — they stream the CSR shards at any scale.
pub const DENSE_STAGE_MAX_ENTRIES: usize = 1 << 22;

/// Guard for the dense-only paths: errors when a sparse input is too
/// large to densify (see [`DENSE_STAGE_MAX_ENTRIES`]). Dense inputs pass
/// unconditionally — they are already materialized.
fn ensure_densifiable<S: IntervalShard>(input: &PipelineInput<'_, S>) -> Result<()> {
    if !S::CSR {
        return Ok(());
    }
    let (rows, cols) = input.shape();
    let entries = rows.saturating_mul(cols);
    if entries > DENSE_STAGE_MAX_ENTRIES {
        return Err(IvmfError::InvalidInput(format!(
            "dense-only stage on a sparse {rows}x{cols} input would materialize {entries} \
             entries (limit {DENSE_STAGE_MAX_ENTRIES}); use ISVD2-4, which stream sparse \
             inputs without densification"
        )));
    }
    Ok(())
}

/// The midpoint matrix, assembled shard by shard (entry-wise and
/// zero-preserving, so bitwise identical to the dense `mid()` for every
/// input kind and representation).
fn input_mid<S: IntervalShard>(input: &PipelineInput<'_, S>) -> Result<Matrix> {
    let (rows, cols) = input.shape();
    ensure_densifiable(input)?;
    let mut data = Vec::with_capacity(rows * cols);
    input.for_each_shard(&mut |shard| {
        data.extend_from_slice(shard.as_dense().mid().as_slice());
        Ok(())
    })?;
    Matrix::from_vec(rows, cols, data).map_err(IvmfError::from)
}

/// The dense interval matrix: borrowed for a one-shard dense input,
/// materialized (and memoized) otherwise. Only the stages that genuinely
/// need the whole matrix at once — the bound SVDs of ISVD1 and ISVD0's
/// midpoint SVD — go through this; the Gram-route stages stream. Sparse
/// inputs densify only below [`DENSE_STAGE_MAX_ENTRIES`] and error with a
/// pointer to ISVD2–4 above it.
fn input_dense<'a, S: IntervalShard>(
    input: &'a PipelineInput<'_, S>,
    cell: &'a OnceCell<IntervalMatrix>,
) -> Result<&'a IntervalMatrix> {
    if let PipelineInput::Borrowed([m]) = input {
        if let Cow::Borrowed(m) = m.as_dense() {
            return Ok(m);
        }
    }
    ensure_densifiable(input)?;
    if cell.get().is_none() {
        let (rows, cols) = input.shape();
        let mut lo = Vec::with_capacity(rows * cols);
        let mut hi = Vec::with_capacity(rows * cols);
        input.for_each_shard(&mut |shard| {
            let shard = shard.as_dense();
            lo.extend_from_slice(shard.lo().as_slice());
            hi.extend_from_slice(shard.hi().as_slice());
            Ok(())
        })?;
        let dense = IntervalMatrix::from_bounds(
            Matrix::from_vec(rows, cols, lo)?,
            Matrix::from_vec(rows, cols, hi)?,
        )?;
        // A concurrent init is impossible (single-threaded session); if the
        // cell were somehow filled, the freshly built value is identical.
        let _ = cell.set(dense);
    }
    Ok(cell.get().expect("just initialized"))
}

/// Row-streamed product `bound(M) · rhs` over the input's shards, through
/// their block type's kernel (the CSR kernel is bitwise identical to the
/// dense one on the same logical matrix; see `ivmf_linalg::sparse`).
fn stream_bound_matmul<S: IntervalShard>(
    input: &PipelineInput<'_, S>,
    hi: bool,
    rhs: &Matrix,
) -> Result<Matrix> {
    matmul_streamed(&BoundBlocks::new(input, hi), rhs).map_err(IvmfError::from)
}

/// Row-streamed `M† · rhs` for a scalar right operand: the streamed
/// counterpart of [`IntervalMatrix::matmul_scalar`] — the same
/// [`IntervalMatrix::envelope_of`] combination over the two bound
/// products — bitwise identical for every shard layout.
fn stream_matmul_scalar<S: IntervalShard>(
    input: &PipelineInput<'_, S>,
    rhs: &Matrix,
) -> Result<IntervalMatrix> {
    let p = stream_bound_matmul(input, false, rhs)?;
    let q = stream_bound_matmul(input, true, rhs)?;
    IntervalMatrix::envelope_of(p, q).map_err(IvmfError::from)
}

/// Reduction-streamed `(lhs · M†)ᵀ` for a scalar left operand: the
/// transposed streamed counterpart of
/// [`IntervalMatrix::matmul_scalar_left`], bitwise identical for every
/// shard layout. `lhs` is handed over in column blocks, once per bound
/// product.
fn stream_matmul_scalar_left_t<S: IntervalShard, L: ColBlocks>(
    mut lhs: L,
    input: &PipelineInput<'_, S>,
) -> Result<IntervalMatrix> {
    let p = matmul_left_streamed_t(&mut lhs, &BoundBlocks::new(input, false))?;
    let q = matmul_left_streamed_t(&mut lhs, &BoundBlocks::new(input, true))?;
    IntervalMatrix::envelope_of(p, q).map_err(IvmfError::from)
}

/// Rows of `U†` per block of the right tightening's projector: a multiple
/// of both the pseudo-inverse Gram's row alignment and the streamed
/// products' chunk, so every chunk the reduction asks for falls inside
/// one block.
const TIGHTEN_BLOCK_ROWS: usize = 4 * PINV_ROW_ALIGN;
const _: () = assert!(TIGHTEN_BLOCK_ROWS % ivmf_linalg::STREAM_CHUNK_ROWS == 0);

/// Rows `start..end` of the midpoint `mid(U†) = 0.5·(lo + hi)`, entry for
/// entry as [`IntervalMatrix::mid`] computes them.
fn mid_rows(u: &IntervalMatrix, start: usize, end: usize) -> Matrix {
    let r = u.cols();
    let (lo, hi) = (
        &u.lo().as_slice()[start * r..end * r],
        &u.hi().as_slice()[start * r..end * r],
    );
    let mid = lo.iter().zip(hi).map(|(&a, &b)| 0.5 * (a + b)).collect();
    Matrix::from_vec(end - start, r, mid).expect("rows x r entries")
}

/// The right tightening's `r x n` projector `Σ⁻¹ · pinv(mid U†)` as a
/// column-block source: the `r x r` pseudo-inverse state is built up
/// front from row blocks of `mid(U†)`, and each block of
/// [`TIGHTEN_BLOCK_ROWS`] projector columns is computed when the
/// reduction first asks for one of its columns. Every product runs the
/// whole product's kernel ([`Dispatch`]), so the columns are bitwise
/// those of the materialized `Σ⁻¹ · pinv(mid U†)`; memory is one block.
struct TightenProjector<'a> {
    u: &'a IntervalMatrix,
    sigma_inv: &'a Matrix,
    pinv: TallPinv,
    /// Dispatch of the whole `Σ⁻¹ · pinv` product.
    apply: Dispatch,
    /// Projector columns `first..first + block.cols()`.
    block: Matrix,
    first: usize,
}

impl<'a> TightenProjector<'a> {
    fn new(u: &'a IntervalMatrix, sigma_inv: &'a Matrix, cutoff: f64) -> Result<Self> {
        let (n, r) = u.shape();
        let mut gram = PinvGram::new(n, r)?;
        for start in (0..n).step_by(TIGHTEN_BLOCK_ROWS) {
            gram.push(&mid_rows(u, start, (start + TIGHTEN_BLOCK_ROWS).min(n)))?;
        }
        Ok(TightenProjector {
            u,
            sigma_inv,
            pinv: gram.finish(cutoff)?,
            apply: Dispatch::for_shape(sigma_inv.rows(), sigma_inv.cols(), n),
            block: Matrix::zeros(sigma_inv.rows(), 0),
            first: 0,
        })
    }
}

impl ColBlocks for TightenProjector<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.sigma_inv.rows(), self.u.rows())
    }

    fn col_block(&mut self, start: usize, end: usize) -> ivmf_linalg::Result<(&Matrix, usize)> {
        if start < self.first || end > self.first + self.block.cols() {
            let first = start / TIGHTEN_BLOCK_ROWS * TIGHTEN_BLOCK_ROWS;
            let last = (end.div_ceil(TIGHTEN_BLOCK_ROWS) * TIGHTEN_BLOCK_ROWS).min(self.u.rows());
            let cols = self.pinv.columns(&mid_rows(self.u, first, last))?;
            self.block = self.sigma_inv.matmul_with(&cols, self.apply)?;
            self.first = first;
        }
        Ok((&self.block, start - self.first))
    }
}

/// The right tightening of ISVD4: `(Σ⁻¹ · (mid U†)⁻¹ ·
/// M†)ᵀ`, `m x r`. Following the paper's rule the averaged factor is
/// inverted directly when it is square and well-conditioned (an `r x r`
/// product) and pseudo-inverted otherwise, in row blocks through
/// [`TightenProjector`]; the reduction streams over the input's shards.
fn stream_right_tighten<S: IntervalShard>(
    input: &PipelineInput<'_, S>,
    u: &IntervalMatrix,
    sigma_inv: &Matrix,
    config: &IsvdConfig,
) -> Result<IntervalMatrix> {
    let (n, r) = u.shape();
    if n == r {
        let mid = u.mid();
        if is_well_conditioned(&mid, config.condition_threshold) {
            return stream_matmul_scalar_left_t(&sigma_inv.matmul(&invert(&mid)?)?, input);
        }
    }
    let projector = TightenProjector::new(u, sigma_inv, config.pinv_cutoff)?;
    stream_matmul_scalar_left_t(projector, input)
}

/// Density cutoff for auto-selecting the sparse Gram path on dense
/// in-memory inputs: at or below 10% stored entries the CSR fold's
/// `O(nnz·m)` beats the dense fold's `O(n·m²)` comfortably, and the swap
/// is invisible — results are bitwise identical by the zero-operand
/// argument in `ivmf_linalg::sparse`.
pub const DEFAULT_SPARSE_THRESHOLD: f64 = 0.1;

/// Fraction of entries of a dense in-memory input that are stored (an
/// entry counts when either bound is nonzero — the same predicate
/// `CsrIntervalShard::from_dense` uses). One `O(nm)` comparison pass,
/// negligible against the `O(nm²)` Gram it steers.
fn input_density_scan<S: IntervalShard>(input: &PipelineInput<'_, S>) -> Result<f64> {
    let (rows, cols) = input.shape();
    let total = rows.saturating_mul(cols);
    if total == 0 {
        return Ok(0.0);
    }
    let mut nnz = 0usize;
    input.for_each_shard(&mut |shard| {
        let shard = shard.as_dense();
        let lo = shard.lo().as_slice();
        let hi = shard.hi().as_slice();
        nnz += lo
            .iter()
            .zip(hi)
            .filter(|&(&l, &h)| l != 0.0 || h != 0.0)
            .count();
        Ok(())
    })?;
    Ok(nnz as f64 / total as f64)
}

/// Whether the session's Gram fold should run through the sparse CSR
/// kernels: always for sparse inputs; for dense *in-memory* inputs when
/// the scanned density is at or below [`DEFAULT_SPARSE_THRESHOLD`]. Lazy
/// dense sources never auto-convert — the density scan would cost an
/// extra pass over the source. The choice is pure kernel selection:
/// results are bitwise identical either way, so it never enters the
/// cache fingerprint.
fn use_sparse_gram<S: IntervalShard>(input: &PipelineInput<'_, S>) -> Result<bool> {
    if S::CSR {
        return Ok(true);
    }
    if matches!(input, PipelineInput::Lazy(_)) {
        return Ok(false);
    }
    Ok(input_density_scan(input)? <= DEFAULT_SPARSE_THRESHOLD)
}

/// An empty interval-Gram accumulator in the given flavour and
/// representation. The session decides the flavour once, from the total
/// shape (`use_mr_gram(rows, cols)`); merge-group units replicate the
/// master's flavour and representation instead of re-deriving them from
/// their own ≤ one group of rows. The dense and CSR representations
/// produce bitwise-identical Grams, so which one a session holds is pure
/// kernel selection.
fn empty_gram(cols: usize, mid_rad: bool, csr: bool) -> StreamingIntervalGram {
    if csr {
        StreamingIntervalGram::with_flavour_csr(cols, mid_rad)
    } else {
        StreamingIntervalGram::with_flavour(cols, mid_rad)
    }
}

/// A merge-group unit's share of one input shard: rows `range` of a shard
/// borrowed from an in-memory input, or a shard owned by the fold (moved
/// out of a lazy source, or copied out of one that straddles a unit
/// boundary).
enum Piece<'a, S> {
    Borrowed(&'a S, std::ops::Range<usize>),
    Owned(S),
}

impl<'a, S: IntervalShard> Piece<'a, S> {
    fn whole(shard: &'a S) -> Self {
        Piece::Borrowed(shard, 0..shard.rows())
    }

    fn rows(&self) -> usize {
        match self {
            Piece::Borrowed(_, range) => range.len(),
            Piece::Owned(s) => s.rows(),
        }
    }

    /// Splits off the first `head` rows when the piece is longer; the
    /// tail is `None` otherwise. Borrowed pieces only narrow their range;
    /// an owned shard is copied into two owned halves and recycled.
    fn split(self, head: usize) -> IResult<(Self, Option<Self>)> {
        let rows = self.rows();
        if rows <= head {
            return Ok((self, None));
        }
        Ok(match self {
            Piece::Borrowed(s, range) => {
                let mid = range.start + head;
                (
                    Piece::Borrowed(s, range.start..mid),
                    Some(Piece::Borrowed(s, mid..range.end)),
                )
            }
            Piece::Owned(s) => {
                let halves = (s.row_slice(0, head)?, s.row_slice(head, rows)?);
                s.recycle();
                (Piece::Owned(halves.0), Some(Piece::Owned(halves.1)))
            }
        })
    }

    /// Calls `f` on the piece's rows; only a partial range of a borrowed
    /// shard is copied first.
    fn with_rows(&self, f: &mut dyn FnMut(&S) -> IResult<()>) -> IResult<()> {
        match self {
            Piece::Borrowed(s, range) if range.len() == s.rows() => f(s),
            Piece::Borrowed(s, range) => f(&s.row_slice(range.start, range.end)?),
            Piece::Owned(s) => f(s),
        }
    }

    /// [`Piece::with_rows`], then [`Piece::recycle`].
    fn visit(self, f: &mut dyn FnMut(&S) -> IResult<()>) -> IResult<()> {
        self.with_rows(f)?;
        self.recycle();
        Ok(())
    }

    /// Hands an owned shard's buffers back to the pool for the next
    /// decode.
    fn recycle(self) {
        if let Piece::Owned(s) = self {
            s.recycle();
        }
    }
}

/// Folds every row of the input into `master` (empty on entry), bitwise
/// identical for every `IVMF_THREADS` count.
///
/// The rows are cut into **merge-group units**: the `GROUP_ROWS`-aligned
/// row ranges on which the streaming accumulators seal their group
/// partials. With more than one thread and more than one unit, up to
/// `threads` units fold concurrently, each on a fresh accumulator of the
/// master's flavour, and are absorbed strictly in unit order — which
/// reproduces the master's own fold bit for bit (see
/// `ivmf_linalg::streaming`). With one thread, or a single unit, the
/// shards fold straight into the master, which seals at the same unit
/// boundaries: no row is copied and no shard is held beyond the one
/// folding.
///
/// Memory: at most `threads` units of rows are held at once. In-memory
/// shards are borrowed, and only the rows of one that straddles a unit
/// boundary are copied, inside the thread folding them; streamed shards
/// are moved into their unit and copied only when they straddle.
fn fold_units<'a, S: IntervalShard>(
    input: &'a PipelineInput<'_, S>,
    rows: usize,
    master: &mut StreamingIntervalGram,
) -> IResult<()> {
    let threads = ivmf_par::configured_threads();
    if threads <= 1 || rows <= GROUP_ROWS {
        return input.for_each_shard(&mut |s| master.push(s));
    }
    let mut sealed: Vec<Vec<Piece<'a, S>>> = Vec::new();
    let mut open: Vec<Piece<'a, S>> = Vec::new();
    let mut open_rows = 0;
    input.walk(&mut |piece| {
        let mut rest = Some(piece);
        while let Some(piece) = rest.take() {
            let (head, tail) = piece.split(GROUP_ROWS - open_rows)?;
            open_rows += head.rows();
            open.push(head);
            if open_rows == GROUP_ROWS {
                sealed.push(std::mem::take(&mut open));
                open_rows = 0;
                if sealed.len() == threads {
                    fold_unit_batch(master, std::mem::take(&mut sealed))?;
                }
            }
            rest = tail;
        }
        Ok(())
    })?;
    if !open.is_empty() {
        sealed.push(open);
    }
    fold_unit_batch(master, sealed)
}

/// Folds consecutive units concurrently, one thread each, then absorbs
/// them into `master` in unit order and recycles their owned shards.
fn fold_unit_batch<S: IntervalShard>(
    master: &mut StreamingIntervalGram,
    units: Vec<Vec<Piece<'_, S>>>,
) -> IResult<()> {
    let (cols, mid_rad, csr) = (master.cols(), master.is_mid_rad(), master.is_csr());
    let folded = ivmf_par::par_map(units.len(), units.len(), |i| {
        let mut acc = empty_gram(cols, mid_rad, csr);
        for piece in &units[i] {
            piece.with_rows(&mut |s| acc.push(s))?;
        }
        Ok::<_, IntervalError>(acc)
    });
    for acc in folded {
        master.absorb_unit(acc?)?;
    }
    units.into_iter().flatten().for_each(Piece::recycle);
    Ok(())
}

/// The retained interval-Gram accumulator of a session: lets
/// [`Pipeline::append_rows`] fold only the new shards' contributions.
#[derive(Debug, Clone)]
pub(crate) struct GramState {
    /// The matrix id the accumulator's content corresponds to.
    pub(crate) matrix: u64,
    pub(crate) acc: StreamingIntervalGram,
}

/// A decomposition session over one interval matrix: executes
/// [`DecompPlan`]s through a [`StageCache`].
///
/// Construct once per matrix/configuration, then run any number of
/// algorithms (and targets) against it; shared stages are computed on first
/// use and served from the cache afterwards. See the
/// [module docs](self) for the full sharing matrix.
///
/// The session's shard representation `S` — dense [`IntervalMatrix`]
/// rows (the default) or [`CsrIntervalShard`]s — is fixed at
/// construction. The input can be a dense matrix ([`Pipeline::new`]), a
/// set of row-block shards of either representation
/// ([`Pipeline::new_sharded`] borrowed, [`Pipeline::from_shards`] owned),
/// or a lazy shard source ([`Pipeline::new_streaming`],
/// [`Pipeline::new_streaming_csr`]) for matrices larger than memory.
/// Every Gram-route stage (interval Gram, left-factor recovery, aligned
/// solve, right tightening) streams over the shards with chunk-realigned
/// arithmetic, so **results are bitwise identical across input kinds,
/// representations and shard layouts**; only ISVD0/ISVD1's SVD stages
/// materialize the dense bounds (memoized per session).
///
/// Every constructor checks each shard in the content-hash pass it
/// already makes: a NaN or infinite bound, or `lo > hi`, is an
/// [`IvmfError::InvalidBounds`] naming the first such cell's row in the
/// whole matrix (the disk readers reject such cells on their own).
#[derive(Debug)]
pub struct Pipeline<'m, S: IntervalShard = IntervalMatrix> {
    input: PipelineInput<'m, S>,
    config: IsvdConfig,
    content: ContentHash,
    pub(crate) matrix: u64,
    pub(crate) cache: StageCache,
    dense: OnceCell<IntervalMatrix>,
    pub(crate) gram_state: Option<GramState>,
    /// The automatic snapshot directory in force when the session was
    /// built: it restores from here on construction and saves here on
    /// drop.
    pub(crate) snapshot_dir: Option<PathBuf>,
}

impl<'m> Pipeline<'m> {
    /// Creates a session with a fresh cache. Fails when the configuration
    /// is invalid for the matrix shape.
    pub fn new(m: &'m IntervalMatrix, config: IsvdConfig) -> Result<Self> {
        Pipeline::with_cache(m, config, StageCache::new())
    }

    /// Creates a session reusing an existing cache (e.g. carried over from
    /// an earlier session on the same matrix, or a shared accounting
    /// cache). Entries with a different matrix id or configuration
    /// fingerprint never collide — they simply miss.
    pub fn with_cache(
        m: &'m IntervalMatrix,
        config: IsvdConfig,
        cache: StageCache,
    ) -> Result<Self> {
        let input = PipelineInput::Borrowed(std::slice::from_ref(m));
        Pipeline::from_input(input, config, cache)
    }

    /// Creates a session over a lazy shard source (e.g. a chunked disk
    /// loader from `ivmf-data`, any [`ivmf_interval::RowShardSource`]):
    /// the Gram-route stages of ISVD2–4 stream the shards one at a time
    /// and never materialize the dense bounds, so matrices larger than
    /// memory decompose end to end (the factor outputs themselves are
    /// `n×r` / `m×r` — far smaller than the `n×m` input for the paper's
    /// ranks). ISVD0/ISVD1 still materialize the dense matrix on first
    /// use. Construction makes one streaming pass to fingerprint the
    /// content.
    pub fn new_streaming(
        source: Box<dyn ShardSource<IntervalMatrix> + 'm>,
        config: IsvdConfig,
    ) -> Result<Self> {
        Pipeline::lazy(source, config)
    }

    /// [`Pipeline::new_streaming`] for a `Send` shard source: wraps it in
    /// an [`ivmf_data::prefetch::PrefetchSource`] (depth from
    /// [`ivmf_env::Settings::prefetch`]), so a background thread decodes
    /// shard *i+1* while the Gram stages fold shard *i*. Delivery stays
    /// strictly in order — every result is bitwise identical to the
    /// unprefetched session.
    pub fn new_streaming_send(
        source: Box<dyn ShardSource<IntervalMatrix> + Send>,
        config: IsvdConfig,
    ) -> Result<Self> {
        let depth = ivmf_env::Settings::current().prefetch;
        Pipeline::lazy(Box::new(PrefetchSource::new(source, depth)), config)
    }
}

impl<'m> Pipeline<'m, CsrIntervalShard> {
    /// [`Pipeline::new_streaming`] over a lazy CSR shard source (any
    /// [`ivmf_interval::CsrShardSource`], e.g. a sparse disk loader from
    /// `ivmf-data`): ISVD2–4 stream the CSR shards one at a time — the
    /// resident footprint is one shard plus the `m×m` Gram accumulator —
    /// so million-row sparse matrices decompose end to end out-of-core.
    pub fn new_streaming_csr(
        source: Box<dyn ShardSource<CsrIntervalShard> + 'm>,
        config: IsvdConfig,
    ) -> Result<Self> {
        Pipeline::lazy(source, config)
    }

    /// [`Pipeline::new_streaming_send`] over a `Send` CSR shard source,
    /// prefetched through [`ivmf_data::prefetch::PrefetchCsrSource`].
    pub fn new_streaming_csr_send(
        source: Box<dyn ShardSource<CsrIntervalShard> + Send>,
        config: IsvdConfig,
    ) -> Result<Self> {
        let depth = ivmf_env::Settings::current().prefetch;
        Pipeline::lazy(Box::new(PrefetchCsrSource::new(source, depth)), config)
    }
}

impl<'m, S: IntervalShard> Pipeline<'m, S> {
    /// Creates a session over a borrowed sharded matrix of either
    /// representation. Results are bitwise identical to a dense session
    /// over the concatenated rows. A dense sharded session shares cache
    /// entries with a dense one (the content id ignores shard layout); a
    /// CSR session hashes stored entries only (see [`matrix_id`]), and
    /// its dense-only stages (ISVD0/ISVD1) densify only below
    /// [`DENSE_STAGE_MAX_ENTRIES`], erroring with a pointer to ISVD2–4
    /// above it.
    pub fn new_sharded(m: &'m ShardedIntervalMatrix<S>, config: IsvdConfig) -> Result<Self> {
        let input = PipelineInput::Borrowed(m.shards());
        Pipeline::from_input(input, config, StageCache::new())
    }

    /// Creates a session that owns its sharded matrix — the form that
    /// accepts [`Pipeline::append_rows`] without copying the existing
    /// shards.
    pub fn from_shards(m: ShardedIntervalMatrix<S>, config: IsvdConfig) -> Result<Self> {
        Pipeline::from_input(PipelineInput::Owned(m), config, StageCache::new())
    }

    fn lazy(source: Box<dyn ShardSource<S> + 'm>, config: IsvdConfig) -> Result<Self> {
        let input = PipelineInput::Lazy(RefCell::new(source));
        Pipeline::from_input(input, config, StageCache::new())
    }

    fn from_input(
        input: PipelineInput<'m, S>,
        config: IsvdConfig,
        cache: StageCache,
    ) -> Result<Self> {
        config.validate(input.shape())?;
        let mut content = ContentHash::new::<S>(input.shape().1);
        let mut invalid = None;
        input.for_each_shard(&mut |shard| {
            if invalid.is_none() {
                invalid = shard
                    .first_invalid_cell()
                    .map(|(row, col, lo, hi)| (content.rows + row, col, lo, hi));
            }
            content.push(shard);
            Ok(())
        })?;
        if let Some((row, col, lo, hi)) = invalid {
            return Err(IvmfError::InvalidBounds { row, col, lo, hi });
        }
        let matrix = content.id();
        let mut pipeline = Pipeline {
            input,
            config,
            content,
            matrix,
            cache,
            dense: OnceCell::new(),
            gram_state: None,
            snapshot_dir: ivmf_env::Settings::current().snapshot_dir.clone(),
        };
        // Warm restart: with a snapshot directory set, a snapshot saved by
        // an earlier session over the same matrix seeds the cache (every
        // entry validated — see `crate::snapshot`); without it this is a
        // no-op.
        pipeline.auto_restore();
        Ok(pipeline)
    }

    /// `(rows, cols)` of the session's (virtual) input matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.input.shape()
    }

    /// The session's input as a dense interval matrix, materializing it on
    /// first call for sharded/lazy inputs (memoized for the session's
    /// lifetime).
    pub fn matrix(&self) -> Result<&IntervalMatrix> {
        input_dense(&self.input, &self.dense)
    }

    /// The session's configuration.
    pub fn config(&self) -> &IsvdConfig {
        &self.config
    }

    /// The session's cache (for accounting).
    pub fn cache(&self) -> &StageCache {
        &self.cache
    }

    /// Content identity of the session's matrix ([`matrix_id`], extended
    /// by appends) — the id snapshot files are named by and validated
    /// against.
    pub fn content_id(&self) -> u64 {
        self.matrix
    }

    /// Consumes the session, returning the cache for reuse. The carried
    /// state leaves with the cache, so the session's drop does not write
    /// an automatic snapshot (the next session owns the cache now).
    pub fn into_cache(mut self) -> StageCache {
        self.gram_state = None;
        std::mem::take(&mut self.cache)
    }

    /// Appends a block of new rows to the session's matrix, updating the
    /// cached interval Gram **incrementally**: if the Gram stage has run
    /// (or been appended to) in this session, only the new rows'
    /// contributions are folded into the retained accumulator — an
    /// `O(Δn·m²)` refresh instead of the `O(n·m²)` cold recompute — and
    /// the refreshed Gram is seeded into the cache under the extended
    /// matrix's id, where the next run finds it as a cache *hit*. The
    /// result is bitwise identical to a cold recompute over the extended
    /// matrix (the accumulator performs exactly the cold fold's operation
    /// sequence, just split in time).
    ///
    /// Every downstream stage (eigen, alignment, solve, …) is invalidated
    /// automatically and exactly: stage keys include the content id, which
    /// the append changes; entries under the old id are pruned. If the
    /// appended rows push the Gram across the midpoint–radius dispatch
    /// threshold (or `IVMF_EXACT_INTERVAL` changed), the accumulator is
    /// discarded and the next run recomputes cold under the new flavour.
    ///
    /// The rows are checked before anything changes: a NaN or infinite
    /// bound, or `lo > hi`, is an [`IvmfError::InvalidBounds`] naming the
    /// cell's row in the extended matrix, and the session is left as it
    /// was. Dense rows appended to a CSR session are CSR-compressed; CSR
    /// rows are refused by a dense session (it never densifies them
    /// implicitly). Borrowed inputs are converted to an owned sharded
    /// copy on first append; lazy shard-source sessions reject appends
    /// (the source owns the data).
    pub fn append_rows<R: IntervalShard>(&mut self, rows: R) -> Result<()> {
        let (n, cols) = self.shape();
        if rows.rows() == 0 {
            return Err(IvmfError::InvalidInput(
                "append_rows needs at least one row".to_string(),
            ));
        }
        if rows.cols() != cols {
            return Err(IvmfError::InvalidInput(format!(
                "appended rows have {} columns, the matrix has {cols}",
                rows.cols()
            )));
        }
        if let Some((row, col, lo, hi)) = rows.first_invalid_cell() {
            let row = n + row;
            return Err(IvmfError::InvalidBounds { row, col, lo, hi });
        }
        let Some(rows) = S::adopt(&rows).map(Cow::into_owned) else {
            return Err(IvmfError::InvalidInput(
                "a dense session does not take CSR rows (they are never densified \
                 implicitly); append dense rows"
                    .to_string(),
            ));
        };
        // Convert borrowed inputs into an owned sharded matrix.
        match &self.input {
            PipelineInput::Owned(_) => {}
            PipelineInput::Borrowed(shards) => {
                let owned = ShardedIntervalMatrix::from_shards(shards.to_vec())?;
                self.input = PipelineInput::Owned(owned);
            }
            PipelineInput::Lazy(_) => {
                return Err(IvmfError::InvalidInput(
                    "append_rows is not supported on a lazy shard-source session; \
                     collect the shards into a sharded matrix first"
                        .to_string(),
                ))
            }
        }

        let old_id = self.matrix;
        self.content.push(&rows);
        let new_id = self.content.id();
        let new_rows_total = self.content.rows;

        // Incremental Gram refresh: fold only the appended contribution,
        // seed the result under the new id so the next lookup hits.
        match self.gram_state.take() {
            Some(mut state)
                if state.matrix == old_id
                    && state.acc.is_mid_rad() == use_mr_gram(new_rows_total, cols) =>
            {
                state.acc.push(&rows)?;
                state.matrix = new_id;
                let gram = state.acc.finish()?;
                let key = StageKey {
                    matrix: new_id,
                    fingerprint: stage_fingerprint(StageId::IntervalGram, &self.config),
                    stage: StageId::IntervalGram,
                };
                self.cache.seed(key, Rc::new(gram));
                self.gram_state = Some(state);
            }
            // Never computed, stale, or flavour flipped: recompute cold on
            // next use.
            _ => self.gram_state = None,
        }

        if let PipelineInput::Owned(m) = &mut self.input {
            m.append_rows(rows)?;
        }
        self.matrix = new_id;
        self.dense = OnceCell::new();
        self.cache.prune_matrix(old_id);
        Ok(())
    }

    /// Runs one algorithm with the session's configured target.
    pub fn run(&mut self, algorithm: IsvdAlgorithm) -> Result<IsvdResult> {
        self.run_with_target(algorithm, self.config.target)
    }

    /// Runs one algorithm with an explicit decomposition target (stage
    /// outputs are target-independent, so any mix of targets shares the
    /// same cache entries). ISVD0 always produces a scalar factorization,
    /// matching [`crate::isvd0::isvd0`].
    pub fn run_with_target(
        &mut self,
        algorithm: IsvdAlgorithm,
        target: DecompositionTarget,
    ) -> Result<IsvdResult> {
        let mut run = RunLog::default();
        let factors = match algorithm {
            IsvdAlgorithm::Isvd0 => self.exec_isvd0(&mut run),
            IsvdAlgorithm::Isvd1 => self.exec_isvd1(&mut run, target),
            IsvdAlgorithm::Isvd2 => self.exec_isvd2(&mut run, target),
            IsvdAlgorithm::Isvd3 => self.exec_isvd3(&mut run, target),
            IsvdAlgorithm::Isvd4 => self.exec_isvd4(&mut run, target),
        }?;
        Ok(IsvdResult {
            factors,
            timings: run.timings,
            stages: run.events,
        })
    }

    /// Runs all five algorithms (paper order) with the configured target,
    /// sharing every common stage through the cache: the interval Gram
    /// matrix and each bound eigendecomposition are computed at most once.
    pub fn run_all(&mut self) -> Result<[IsvdResult; 5]> {
        Ok([
            self.run(IsvdAlgorithm::Isvd0)?,
            self.run(IsvdAlgorithm::Isvd1)?,
            self.run(IsvdAlgorithm::Isvd2)?,
            self.run(IsvdAlgorithm::Isvd3)?,
            self.run(IsvdAlgorithm::Isvd4)?,
        ])
    }

    // -- public stage accessors (experiment harnesses read intermediate
    // -- stage outputs, e.g. Figures 3 & 5) --

    /// The [`StageId::BoundSvd`] output: independent truncated SVDs of the
    /// two bounds (computing it on first call, cached afterwards and shared
    /// with any later ISVD1 run).
    pub fn bound_svds(&mut self) -> Result<Rc<BoundSvds>> {
        let mut run = RunLog::default();
        self.stage_bound_svds(&mut run)
    }

    /// The [`StageId::SvdAlign`] output: the ILSA alignment between the
    /// right singular vectors of the two bound SVDs.
    pub fn svd_alignment(&mut self) -> Result<Rc<Alignment>> {
        let mut run = RunLog::default();
        let svds = self.stage_bound_svds(&mut run)?;
        self.stage_svd_align(&mut run, svds)
    }

    /// The [`StageId::IntervalGram`] output: the interval Gram matrix
    /// `A† = M†ᵀ M†`.
    pub fn interval_gram(&mut self) -> Result<Rc<IntervalMatrix>> {
        let mut run = RunLog::default();
        self.stage_interval_gram(&mut run)
    }

    /// The [`StageId::RightTighten`] output: ISVD4's recomputed right
    /// factor bounds `(lo, hi)`, each `m x r`, from the aligned solve it
    /// shares with ISVD3.
    pub fn right_tighten(&mut self) -> Result<Rc<(Matrix, Matrix)>> {
        let mut run = RunLog::default();
        let (_, solved) = self.solve_prefix(&mut run)?;
        self.stage_right_tighten(&mut run, solved)
    }

    // -- plan executors --

    fn exec_isvd0(&mut self, run: &mut RunLog) -> Result<crate::target::IntervalSvd> {
        let avg = self.stage_midpoint(run)?;
        let f = self.stage_midpoint_svd(run, avg)?;
        timed(&mut run.timings.renormalization, || {
            FactorBounds {
                u_lo: &f.u,
                u_hi: &f.u,
                sigma_lo: &f.singular_values,
                sigma_hi: &f.singular_values,
                v_lo: &f.v,
                v_hi: &f.v,
            }
            .assemble(DecompositionTarget::Scalar)
        })
    }

    fn exec_isvd1(
        &mut self,
        run: &mut RunLog,
        target: DecompositionTarget,
    ) -> Result<crate::target::IntervalSvd> {
        let svds = self.stage_bound_svds(run)?;
        let alignment = self.stage_svd_align(run, Rc::clone(&svds))?;
        let (u_lo, sigma_lo, v_lo) = timed(&mut run.timings.alignment, || {
            let u_lo = alignment.apply_to_columns(&svds.lo.u)?;
            let v_lo = alignment.apply_to_columns(&svds.lo.v)?;
            let sigma_lo = alignment.apply_to_diag(&svds.lo.singular_values)?;
            Ok::<_, IvmfError>((u_lo, sigma_lo, v_lo))
        })?;
        timed(&mut run.timings.renormalization, || {
            FactorBounds {
                u_lo: &u_lo,
                u_hi: &svds.hi.u,
                sigma_lo: &sigma_lo,
                sigma_hi: &svds.hi.singular_values,
                v_lo: &v_lo,
                v_hi: &svds.hi.v,
            }
            .assemble(target)
        })
    }

    fn exec_isvd2(
        &mut self,
        run: &mut RunLog,
        target: DecompositionTarget,
    ) -> Result<crate::target::IntervalSvd> {
        let gram = self.stage_interval_gram(run)?;
        let eig_lo = self.stage_bound_eigen(run, Rc::clone(&gram), false)?;
        let eig_hi = self.stage_bound_eigen(run, gram, true)?;
        let recovered = self.stage_left_recover(run, Rc::clone(&eig_lo), Rc::clone(&eig_hi))?;
        let alignment = self.stage_gram_align(run, Rc::clone(&eig_lo), Rc::clone(&eig_hi))?;
        let (u_lo, sigma_lo, v_lo) = timed(&mut run.timings.alignment, || {
            let u_lo = alignment.apply_to_columns(&recovered.0)?;
            let v_lo = alignment.apply_to_columns(&eig_lo.v)?;
            let sigma_lo = alignment.apply_to_diag(&eig_lo.sigma)?;
            Ok::<_, IvmfError>((u_lo, sigma_lo, v_lo))
        })?;
        timed(&mut run.timings.renormalization, || {
            FactorBounds {
                u_lo: &u_lo,
                u_hi: &recovered.1,
                sigma_lo: &sigma_lo,
                sigma_hi: &eig_hi.sigma,
                v_lo: &v_lo,
                v_hi: &eig_hi.v,
            }
            .assemble(target)
        })
    }

    /// The stage prefix ISVD3 and ISVD4 share verbatim: Gram → bound
    /// eigens → ILSA → aligned interval solve. Returns the maximum-side
    /// eigendecomposition (needed at assembly) alongside the solve.
    fn solve_prefix(&mut self, run: &mut RunLog) -> Result<(Rc<BoundEigen>, Rc<AlignedSolveOut>)> {
        let gram = self.stage_interval_gram(run)?;
        let eig_lo = self.stage_bound_eigen(run, Rc::clone(&gram), false)?;
        let eig_hi = self.stage_bound_eigen(run, gram, true)?;
        let alignment = self.stage_gram_align(run, Rc::clone(&eig_lo), Rc::clone(&eig_hi))?;
        let solved = self.stage_aligned_solve(run, eig_lo, Rc::clone(&eig_hi), alignment)?;
        Ok((eig_hi, solved))
    }

    fn exec_isvd3(
        &mut self,
        run: &mut RunLog,
        target: DecompositionTarget,
    ) -> Result<crate::target::IntervalSvd> {
        let (eig_hi, solved) = self.solve_prefix(run)?;
        timed(&mut run.timings.renormalization, || {
            FactorBounds {
                u_lo: solved.u.lo(),
                u_hi: solved.u.hi(),
                sigma_lo: &solved.sigma_lo,
                sigma_hi: &eig_hi.sigma,
                v_lo: &solved.v_lo,
                v_hi: &eig_hi.v,
            }
            .assemble(target)
        })
    }

    fn exec_isvd4(
        &mut self,
        run: &mut RunLog,
        target: DecompositionTarget,
    ) -> Result<crate::target::IntervalSvd> {
        let (eig_hi, solved) = self.solve_prefix(run)?;
        let tightened = self.stage_right_tighten(run, Rc::clone(&solved))?;
        timed(&mut run.timings.renormalization, || {
            FactorBounds {
                u_lo: solved.u.lo(),
                u_hi: solved.u.hi(),
                sigma_lo: &solved.sigma_lo,
                sigma_hi: &eig_hi.sigma,
                v_lo: &tightened.0,
                v_hi: &tightened.1,
            }
            .assemble(target)
        })
    }

    // -- memoized stages --

    /// The fingerprint is derived per lookup from the fields this stage
    /// consumes ([`stage_fingerprint`]): rank-independent stages survive a
    /// rank change on a shared cache, and reading the exact-interval
    /// setting at every lookup means a flip of the interval-operator flavour
    /// invalidates (by key mismatch) entries computed under the other
    /// flavour instead of serving them stale.
    fn key(&self, stage: StageId) -> StageKey {
        StageKey {
            matrix: self.matrix,
            fingerprint: stage_fingerprint(stage, &self.config),
            stage,
        }
    }

    fn stage_midpoint(&mut self, run: &mut RunLog) -> Result<Rc<Matrix>> {
        let key = self.key(StageId::Midpoint);
        let input = &self.input;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.preprocessing, || input_mid(input))
        })
    }

    fn stage_midpoint_svd(&mut self, run: &mut RunLog, avg: Rc<Matrix>) -> Result<Rc<Svd>> {
        let key = self.key(StageId::MidpointSvd);
        let rank = self.config.rank;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.decomposition, || {
                svd_truncated(&avg, rank).map_err(IvmfError::from)
            })
        })
    }

    fn stage_bound_svds(&mut self, run: &mut RunLog) -> Result<Rc<BoundSvds>> {
        let key = self.key(StageId::BoundSvd);
        let input = &self.input;
        let dense = &self.dense;
        let rank = self.config.rank;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.decomposition, || {
                let m = input_dense(input, dense)?;
                let lo = svd_truncated(m.lo(), rank)?;
                let hi = svd_truncated(m.hi(), rank)?;
                Ok::<_, IvmfError>(BoundSvds { lo, hi })
            })
        })
    }

    fn stage_svd_align(&mut self, run: &mut RunLog, svds: Rc<BoundSvds>) -> Result<Rc<Alignment>> {
        let key = self.key(StageId::SvdAlign);
        let matcher = self.config.matcher;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.alignment, || {
                ilsa(&svds.lo.v, &svds.hi.v, matcher).map_err(IvmfError::from)
            })
        })
    }

    /// The interval Gram through the streaming accumulator: one fold over
    /// the input's shards (chunk-realigned, so bitwise identical for every
    /// input kind and shard layout, and equal to the historical dense
    /// `interval_gram_fast` for matrices within one chunk). The
    /// accumulator is retained on the session so [`Pipeline::append_rows`]
    /// can later fold only new contributions.
    fn stage_interval_gram(&mut self, run: &mut RunLog) -> Result<Rc<IntervalMatrix>> {
        let key = self.key(StageId::IntervalGram);
        let input = &self.input;
        let gram_state = &mut self.gram_state;
        let matrix = self.matrix;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.preprocessing, || {
                let (rows, cols) = input.shape();
                // Sparse inputs always fold through the CSR accumulator;
                // dense in-memory inputs switch to it at or below
                // `DEFAULT_SPARSE_THRESHOLD` density. Both paths are
                // bitwise identical, so the choice never enters the key.
                let sparse = use_sparse_gram(input)?;
                // Units fold concurrently on `IVMF_THREADS` threads and
                // merge in unit order — bitwise the one-thread fold, so
                // the thread count stays out of the key too.
                let mut acc = empty_gram(cols, use_mr_gram(rows, cols), sparse);
                fold_units(input, rows, &mut acc)?;
                if acc.rows_seen() != rows {
                    // An under-delivering lazy source would otherwise
                    // yield a silently partial Gram.
                    return Err(IvmfError::InvalidInput(format!(
                        "row-shard source delivered {} of its declared {rows} rows",
                        acc.rows_seen()
                    )));
                }
                let gram = acc.finish()?;
                *gram_state = Some(GramState { matrix, acc });
                Ok::<_, IvmfError>(gram)
            })
        })
    }

    fn stage_bound_eigen(
        &mut self,
        run: &mut RunLog,
        gram: Rc<IntervalMatrix>,
        hi: bool,
    ) -> Result<Rc<BoundEigen>> {
        let key = self.key(if hi {
            StageId::BoundEigenHi
        } else {
            StageId::BoundEigenLo
        });
        let rank = self.config.rank;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.decomposition, || {
                bound_eigen(if hi { gram.hi() } else { gram.lo() }, rank)
            })
        })
    }

    fn stage_left_recover(
        &mut self,
        run: &mut RunLog,
        eig_lo: Rc<BoundEigen>,
        eig_hi: Rc<BoundEigen>,
    ) -> Result<Rc<(Matrix, Matrix)>> {
        let key = self.key(StageId::LeftRecover);
        let input = &self.input;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.decomposition, || {
                // Row-streamed `U = M V Σ⁻¹`: the product streams shard by
                // shard, the Σ⁻¹ column scaling is entry-wise and applied
                // afterwards exactly as in `recover_left_factor`.
                let mut u_lo = stream_bound_matmul(input, false, &eig_lo.v)?;
                scale_left_factor(&mut u_lo, &eig_lo.sigma);
                let mut u_hi = stream_bound_matmul(input, true, &eig_hi.v)?;
                scale_left_factor(&mut u_hi, &eig_hi.sigma);
                Ok::<_, IvmfError>((u_lo, u_hi))
            })
        })
    }

    fn stage_gram_align(
        &mut self,
        run: &mut RunLog,
        eig_lo: Rc<BoundEigen>,
        eig_hi: Rc<BoundEigen>,
    ) -> Result<Rc<Alignment>> {
        let key = self.key(StageId::GramAlign);
        let matcher = self.config.matcher;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.alignment, || {
                ilsa(&eig_lo.v, &eig_hi.v, matcher).map_err(IvmfError::from)
            })
        })
    }

    fn stage_aligned_solve(
        &mut self,
        run: &mut RunLog,
        eig_lo: Rc<BoundEigen>,
        eig_hi: Rc<BoundEigen>,
        alignment: Rc<Alignment>,
    ) -> Result<Rc<AlignedSolveOut>> {
        let key = self.key(StageId::AlignedSolve);
        let input = &self.input;
        let config = self.config;
        self.cache.get_or_compute(key, run, |t| {
            // Alignment application (Algorithm 10, lines 5-13): the left
            // factor does not exist yet.
            let (v_lo, sigma_lo) = timed(&mut t.alignment, || {
                let v_lo = alignment.apply_to_columns(&eig_lo.v)?;
                let sigma_lo = alignment.apply_to_diag(&eig_lo.sigma)?;
                Ok::<_, IvmfError>((v_lo, sigma_lo))
            })?;
            // Solve U† = M† ((V†)ᵀ)⁻¹ (Σ†)⁻¹ using the averaged V and the
            // scalar interval-core inverse; the `M† · projector` product
            // streams over the input's shards.
            let (u, sigma_inv) = timed(&mut t.decomposition, || {
                let v_avg = v_lo.mean_with(&eig_hi.v)?;
                let v_t_inv = invert_factor_transpose(&v_avg, &config)?;
                let sigma_inv = sigma_inverse_matrix(&sigma_lo, &eig_hi.sigma)?;
                let projector = v_t_inv.matmul(&sigma_inv)?;
                let u = stream_matmul_scalar(input, &projector)?;
                Ok::<_, IvmfError>((u, sigma_inv))
            })?;
            Ok(AlignedSolveOut {
                v_lo,
                sigma_lo,
                u,
                sigma_inv,
            })
        })
    }

    fn stage_right_tighten(
        &mut self,
        run: &mut RunLog,
        solved: Rc<AlignedSolveOut>,
    ) -> Result<Rc<(Matrix, Matrix)>> {
        let key = self.key(StageId::RightTighten);
        let input = &self.input;
        let config = self.config;
        self.cache.get_or_compute(key, run, |t| {
            timed(&mut t.decomposition, || {
                // The degenerate (scalar) left operand needs two bound
                // products instead of the four of the general interval
                // product, with identical results.
                let recomputed =
                    stream_right_tighten(input, &solved.u, &solved.sigma_inv, &config)?;
                Ok::<_, IvmfError>(recomputed.into_bounds())
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Batched drivers.
// ---------------------------------------------------------------------------

/// Runs every ISVD algorithm on one matrix through a shared fresh cache:
/// the interval Gram matrix, each bound eigendecomposition and the ILSA
/// alignment are computed at most once, and the results are bitwise
/// identical to five standalone [`isvd`](crate::isvd::isvd) calls.
///
/// Results are in paper order (`ISVD0` … `ISVD4`), each carrying its own
/// cache accounting in [`StageTimings`].
pub fn run_all(m: &IntervalMatrix, config: &IsvdConfig) -> Result<[IsvdResult; 5]> {
    Pipeline::new(m, *config)?.run_all()
}

/// Multi-matrix batch API: [`run_all`] over every matrix, with the stage
/// cache cleared between matrices so memory stays bounded by one matrix's
/// working set (identical replicate matrices still share within their own
/// run; distinct matrices share nothing anyway).
pub fn run_all_batch(
    matrices: &[IntervalMatrix],
    config: &IsvdConfig,
) -> Result<Vec<[IsvdResult; 5]>> {
    run_batch(matrices.iter().map(std::slice::from_ref), config)
}

/// The batch loop: one session per shard list, on one cache cleared in
/// between.
fn run_batch<'m, S: IntervalShard>(
    inputs: impl Iterator<Item = &'m [S]>,
    config: &IsvdConfig,
) -> Result<Vec<[IsvdResult; 5]>> {
    let mut cache = StageCache::new();
    let mut out = Vec::new();
    for shards in inputs {
        cache.clear();
        let input = PipelineInput::Borrowed(shards);
        let mut pipeline = Pipeline::from_input(input, *config, cache)?;
        out.push(pipeline.run_all()?);
        cache = pipeline.into_cache();
    }
    Ok(out)
}

/// [`run_all`] over a sharded matrix of either representation: bitwise
/// identical to the dense driver on the concatenated rows (every stage
/// either streams with chunk-realigned arithmetic or materializes the
/// dense matrix), with the same shared-stage accounting. This driver runs
/// ISVD0/ISVD1 too, so a CSR matrix must be below
/// [`DENSE_STAGE_MAX_ENTRIES`]; for larger ones run ISVD2–4 individually
/// through [`Pipeline::new_sharded`].
pub fn run_all_sharded<S: IntervalShard>(
    m: &ShardedIntervalMatrix<S>,
    config: &IsvdConfig,
) -> Result<[IsvdResult; 5]> {
    Pipeline::new_sharded(m, *config)?.run_all()
}

/// Multi-matrix batch API over sharded matrices: the sharded counterpart
/// of [`run_all_batch`], clearing the shared cache between matrices so
/// memory stays bounded by one matrix's working set.
pub fn run_all_batch_sharded<S: IntervalShard>(
    matrices: &[ShardedIntervalMatrix<S>],
    config: &IsvdConfig,
) -> Result<Vec<[IsvdResult; 5]>> {
    run_batch(matrices.iter().map(ShardedIntervalMatrix::shards), config)
}

/// Single-algorithm entry used by the [`crate::isvd::isvd`] dispatcher and
/// the thin `isvd0` … `isvd4` wrappers: a fresh pipeline (fresh cache), so
/// the sequential path computes exactly what it always did.
pub(crate) fn run_single(
    m: &IntervalMatrix,
    config: &IsvdConfig,
    algorithm: IsvdAlgorithm,
) -> Result<IsvdResult> {
    Pipeline::new(m, *config)?.run(algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_results_bitwise, assert_same_bits, random_interval_matrix};
    use ivmf_interval::{CsrShardedIntervalMatrix, RowShardedIntervalMatrix};

    /// The projector of [`TightenProjector`] assembled from the column
    /// blocks the streamed reduction asks for (one per 128-row chunk).
    fn assembled_projector(u: &IntervalMatrix, sigma_inv: &Matrix, cutoff: f64) -> Result<Matrix> {
        let mut projector = TightenProjector::new(u, sigma_inv, cutoff)?;
        let (p, n) = projector.shape();
        let mut out = Matrix::zeros(p, n);
        for start in (0..n).step_by(ivmf_linalg::STREAM_CHUNK_ROWS) {
            let end = (start + ivmf_linalg::STREAM_CHUNK_ROWS).min(n);
            let (block, offset) = projector.col_block(start, end)?;
            for i in 0..p {
                out.row_mut(i)[start..end]
                    .copy_from_slice(&block.row(i)[offset..offset + end - start]);
            }
        }
        Ok(out)
    }

    /// One input's [`stream_right_tighten`] against the streamed products
    /// of the materialized projector `reference` (or its error).
    fn check_tighten<S: IntervalShard>(
        input: &PipelineInput<'_, S>,
        (u, sigma_inv, config, reference): (&IntervalMatrix, &Matrix, &IsvdConfig, &Result<Matrix>),
        context: &str,
    ) {
        let context = format!("{context} {input:?}");
        let got = stream_right_tighten(input, u, sigma_inv, config);
        match reference {
            Ok(p) => {
                let want = stream_matmul_scalar_left_t(p, input).unwrap();
                let got = got.unwrap();
                assert_same_bits(want.lo(), got.lo(), &format!("{context} lo"));
                assert_same_bits(want.hi(), got.hi(), &format!("{context} hi"));
            }
            Err(e) => assert_eq!(
                got.unwrap_err().to_string(),
                e.to_string(),
                "{context}: error"
            ),
        }
    }

    /// The bitwise oracle of the right tightening: the one-shot chain
    /// `mid(U†) → invert_factor → Σ⁻¹ · _` (the materialized `r x n`
    /// projector) against the row-block [`TightenProjector`], and the
    /// streamed bound products of both. Edge-case entries (±0,
    /// subnormals, NaN, ±Inf, 1e300; a non-finite Gram is rejected by the
    /// eigensolver on both sides), rank-deficient and zero columns, `n` on
    /// both sides of the packed-kernel dispatch points (`n·r²` and
    /// `n·r²/2`) and across projector blocks, at 1 and 2 threads.
    #[test]
    fn right_tighten_blocks_match_the_one_shot_chain_bitwise() {
        use crate::isvd::invert_factor;
        use ivmf_linalg::random::{
            assert_same_outcome, dispatch_boundary_rows, factor_edge_cases,
            finite_edge_case_matrix, uniform_matrix,
        };
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut rng = SmallRng::seed_from_u64(55);
        let config = IsvdConfig::new(1);
        for threads in [1, 2] {
            let settings = ivmf_env::Settings {
                threads,
                ..ivmf_env::Settings::default()
            };
            settings.scope(|| {
                for r in [1usize, 7, 20] {
                    let block_edge = TIGHTEN_BLOCK_ROWS + 300;
                    for n in dispatch_boundary_rows(r).into_iter().chain([block_edge]) {
                        if threads != 1 && n * r * r < ivmf_linalg::MATMUL_PAR_MIN_WORK {
                            continue; // smaller products never split across workers
                        }
                        let sigma_inv = finite_edge_case_matrix(&mut rng, r, r);
                        // The streamed products pair each chunk with projector
                        // columns the assembled check covers, so they run only
                        // up to two projector blocks (`block_edge` rows).
                        let m = random_interval_matrix(n as u64, n.min(block_edge), 3, 1.0);
                        let csr = CsrShardedIntervalMatrix::from_dense(&m, 500).unwrap();
                        let dense = PipelineInput::Borrowed(std::slice::from_ref(&m));
                        let csr = PipelineInput::Borrowed(csr.shards());
                        for (kind, lo) in factor_edge_cases(&mut rng, n, r) {
                            let hi = lo.add(&uniform_matrix(&mut rng, n, r, 0.0, 0.5)).unwrap();
                            let u = IntervalMatrix::from_bounds(lo, hi).unwrap();
                            let context = format!("{kind} {n}x{r} threads {threads}");
                            let reference = invert_factor(&u.mid(), &config)
                                .and_then(|inv| Ok(sigma_inv.matmul(&inv)?));
                            if n != r {
                                let blocks =
                                    assembled_projector(&u, &sigma_inv, config.pinv_cutoff);
                                assert_same_outcome(&reference, &blocks, &context);
                            }
                            if n <= block_edge {
                                let tighten = (&u, &sigma_inv, &config, &reference);
                                check_tighten(&dense, tighten, &context);
                                check_tighten(&csr, tighten, &context);
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn plans_cover_all_algorithms_and_share_as_documented() {
        let plans = DecompPlan::all();
        assert_eq!(plans.len(), 5);
        let plan_of = |alg| DecompPlan::for_algorithm(alg);
        // ISVD2/3/4 share the Gram + eigen stages; ISVD0/1 share nothing.
        assert!(plan_of(IsvdAlgorithm::Isvd2).shares_with(&plan_of(IsvdAlgorithm::Isvd3)));
        assert!(plan_of(IsvdAlgorithm::Isvd3).shares_with(&plan_of(IsvdAlgorithm::Isvd4)));
        assert!(!plan_of(IsvdAlgorithm::Isvd0).shares_with(&plan_of(IsvdAlgorithm::Isvd1)));
        assert!(!plan_of(IsvdAlgorithm::Isvd0).shares_with(&plan_of(IsvdAlgorithm::Isvd0)));
        // Every stage id names itself consistently.
        for plan in plans {
            for stage in plan.stages {
                assert!(!stage.name().is_empty());
                assert!(
                    ["preprocessing", "decomposition", "alignment"].contains(&stage.paper_slot())
                );
                assert_eq!(format!("{stage}"), stage.name());
            }
        }
    }

    #[test]
    fn executed_stages_match_the_published_plan() {
        let m = random_interval_matrix(11, 10, 7, 1.0);
        for alg in IsvdAlgorithm::all() {
            let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
            let result = p.run(alg).unwrap();
            let executed: Vec<StageId> = result.stages.iter().map(|e| e.stage).collect();
            assert_eq!(
                executed,
                DecompPlan::for_algorithm(alg).stages,
                "stage trace mismatch for {alg}"
            );
            // A fresh pipeline misses every stage.
            assert_eq!(result.timings.cache_hits, 0);
            assert_eq!(
                result.timings.cache_misses as usize,
                DecompPlan::for_algorithm(alg).stages.len()
            );
        }
    }

    #[test]
    fn second_run_is_served_entirely_from_cache() {
        let m = random_interval_matrix(12, 9, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(3)).unwrap();
        let first = p.run(IsvdAlgorithm::Isvd4).unwrap();
        let second = p.run(IsvdAlgorithm::Isvd4).unwrap();
        assert_eq!(second.timings.cache_misses, 0);
        assert_eq!(
            second.timings.cache_hits, first.timings.cache_misses,
            "every first-run miss must be a second-run hit"
        );
        assert!(second.stages.iter().all(|e| e.cache_hit));
        // Bitwise-identical factors.
        assert_eq!(first.factors.u, second.factors.u);
        assert_eq!(first.factors.v, second.factors.v);
        assert_eq!(first.factors.sigma, second.factors.sigma);
    }

    #[test]
    fn matrix_id_is_content_based() {
        let a = random_interval_matrix(13, 6, 5, 1.0);
        let b = a.clone();
        assert_eq!(matrix_id(&a), matrix_id(&b));
        let c = random_interval_matrix(14, 6, 5, 1.0);
        assert_ne!(matrix_id(&a), matrix_id(&c));
    }

    #[test]
    fn fingerprint_covers_arithmetic_fields_only() {
        let base = IsvdConfig::new(4);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
        // Algorithm and target are excluded: stage outputs ignore them.
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_algorithm(IsvdAlgorithm::Isvd1))
        );
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_target(DecompositionTarget::Scalar))
        );
        // Arithmetic-relevant fields are included.
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&IsvdConfig::new(5))
        );
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_matcher(ivmf_align::Matcher::Greedy))
        );
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_condition_threshold(123.0))
        );
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_pinv_cutoff(0.2))
        );

        // Per-stage fingerprints fold in only what the stage consumes:
        // the interval Gram is rank- and matcher-independent, the eigen
        // stages are rank-dependent but matcher-independent.
        let rank5 = IsvdConfig::new(5);
        assert_eq!(
            stage_fingerprint(StageId::IntervalGram, &base),
            stage_fingerprint(StageId::IntervalGram, &rank5)
        );
        assert_ne!(
            stage_fingerprint(StageId::MidpointSvd, &base),
            stage_fingerprint(StageId::MidpointSvd, &rank5)
        );
        assert_eq!(
            stage_fingerprint(StageId::BoundEigenLo, &base),
            stage_fingerprint(
                StageId::BoundEigenLo,
                &base.with_matcher(ivmf_align::Matcher::Greedy)
            )
        );
        assert_ne!(
            stage_fingerprint(StageId::GramAlign, &base),
            stage_fingerprint(
                StageId::GramAlign,
                &base.with_matcher(ivmf_align::Matcher::Greedy)
            )
        );
    }

    #[test]
    fn cache_reuse_across_sessions_and_invalidated_by_fingerprint() {
        let m = random_interval_matrix(15, 10, 6, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
        p.run(IsvdAlgorithm::Isvd2).unwrap();
        let cache = p.into_cache();

        // Same matrix + same config: the Gram stage is served from cache.
        let mut p2 = Pipeline::with_cache(&m, IsvdConfig::new(4), cache).unwrap();
        let r = p2.run(IsvdAlgorithm::Isvd2).unwrap();
        assert_eq!(r.timings.cache_misses, 0);

        // Changed rank: every rank-dependent stage misses again, but the
        // rank-independent interval Gram survives the sweep.
        let cache = p2.into_cache();
        let mut p3 = Pipeline::with_cache(&m, IsvdConfig::new(5), cache).unwrap();
        let r = p3.run(IsvdAlgorithm::Isvd2).unwrap();
        assert_eq!(r.timings.cache_hits, 1, "only the Gram may be reused");
        assert_eq!(r.timings.cache_misses, 4);
        let gram_event = r
            .stages
            .iter()
            .find(|e| e.stage == StageId::IntervalGram)
            .unwrap();
        assert!(gram_event.cache_hit);

        // Changed matcher: only the ILSA stage consumes it, so the Gram,
        // both eigens and the left-factor recovery all survive.
        let cache = p3.into_cache();
        let config = IsvdConfig::new(5).with_matcher(ivmf_align::Matcher::Greedy);
        let mut p4 = Pipeline::with_cache(&m, config, cache).unwrap();
        let r = p4.run(IsvdAlgorithm::Isvd2).unwrap();
        assert_eq!(r.timings.cache_hits, 4); // gram + both eigens + recovery
        assert_eq!(r.timings.cache_misses, 1); // the GramAlign ILSA
    }

    #[test]
    fn run_all_shares_gram_and_eigens_exactly_once() {
        let m = random_interval_matrix(16, 12, 8, 1.5);
        let mut p = Pipeline::new(&m, IsvdConfig::new(5)).unwrap();
        let results = p.run_all().unwrap();
        let gram_computes: usize = results
            .iter()
            .flat_map(|r| r.stages.iter())
            .filter(|e| e.stage == StageId::IntervalGram && !e.cache_hit)
            .count();
        assert_eq!(gram_computes, 1, "interval Gram must be computed once");
        for eig in [StageId::BoundEigenLo, StageId::BoundEigenHi] {
            let computes: usize = results
                .iter()
                .flat_map(|r| r.stages.iter())
                .filter(|e| e.stage == eig && !e.cache_hit)
                .count();
            assert_eq!(computes, 1, "{eig} must be computed once");
        }
        // ISVD3 hits all four stages ISVD2 already computed.
        assert_eq!(results[3].timings.cache_hits, 4);
        assert_eq!(results[3].timings.cache_misses, 1); // AlignedSolve
                                                        // ISVD4 additionally hits the solve, missing only RightTighten.
        assert_eq!(results[4].timings.cache_hits, 5);
        assert_eq!(results[4].timings.cache_misses, 1);
    }

    #[test]
    fn run_all_batch_handles_multiple_matrices() {
        let matrices: Vec<IntervalMatrix> = (0..3)
            .map(|i| random_interval_matrix(20 + i, 8, 6, 1.0))
            .collect();
        let batch = run_all_batch(&matrices, &IsvdConfig::new(3)).unwrap();
        assert_eq!(batch.len(), 3);
        for (per_matrix, m) in batch.iter().zip(&matrices) {
            for (result, alg) in per_matrix.iter().zip(IsvdAlgorithm::all()) {
                let standalone =
                    crate::isvd::isvd(m, &IsvdConfig::new(3).with_algorithm(alg)).unwrap();
                assert_eq!(result.factors.u, standalone.factors.u, "{alg} U mismatch");
                assert_eq!(result.factors.v, standalone.factors.v, "{alg} V mismatch");
            }
        }
    }

    #[test]
    fn stage_accessors_share_with_isvd1_runs() {
        let m = random_interval_matrix(30, 10, 7, 1.0);
        let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
        let svds = p.bound_svds().unwrap();
        assert_eq!(svds.lo.k(), 4);
        let alignment = p.svd_alignment().unwrap();
        assert_eq!(alignment.len(), 4);
        // The ISVD1 run now hits both of its stages.
        let r = p.run(IsvdAlgorithm::Isvd1).unwrap();
        assert_eq!(r.timings.cache_hits, 2);
        assert_eq!(r.timings.cache_misses, 0);
        // Gram accessor is idempotent.
        let g1 = p.interval_gram().unwrap();
        let g2 = p.interval_gram().unwrap();
        assert_eq!(*g1, *g2);
        assert_eq!(p.cache().misses(), 3); // bound_svd, svd_align, interval_gram
    }

    #[test]
    fn invalid_config_is_rejected_at_session_construction() {
        let m = random_interval_matrix(31, 5, 4, 1.0);
        assert!(Pipeline::new(&m, IsvdConfig::new(0)).is_err());
        assert!(Pipeline::new(&m, IsvdConfig::new(9)).is_err());
        assert!(run_all(&m, &IsvdConfig::new(0)).is_err());
    }

    #[test]
    fn sharded_run_all_is_bitwise_identical_to_dense_for_every_shard_layout() {
        let m = random_interval_matrix(40, 17, 11, 1.0);
        let config = IsvdConfig::new(5);
        let dense = run_all(&m, &config).unwrap();
        for shard_rows in [1usize, 3, 4, 17] {
            let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
            let results = run_all_sharded(&sharded, &config).unwrap();
            assert_results_bitwise(&results, &dense, &format!("shard_rows={shard_rows}"));
        }
    }

    #[test]
    fn sharded_and_dense_sessions_share_cache_entries() {
        // The content id ignores shard layout, so a sharded session over
        // one cache re-serves the dense session's stage outputs.
        let m = random_interval_matrix(41, 14, 9, 1.0);
        let sharded = RowShardedIntervalMatrix::from_dense(&m, 4).unwrap();
        let mut p = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let cache = p.into_cache();
        let mut p2 = Pipeline::from_input(
            PipelineInput::Borrowed(sharded.shards()),
            IsvdConfig::new(4),
            cache,
        )
        .unwrap();
        let r = p2.run(IsvdAlgorithm::Isvd4).unwrap();
        assert_eq!(r.timings.cache_misses, 0, "sharded session must hit");
    }

    #[test]
    fn append_rows_matches_cold_recompute_bitwise_and_reuses_the_gram() {
        let base = random_interval_matrix(42, 13, 8, 1.0);
        let extra = random_interval_matrix(43, 4, 8, 1.0);
        let config = IsvdConfig::new(4);

        // Incremental: run everything, append, run again.
        let sharded = RowShardedIntervalMatrix::from_dense(&base, 5).unwrap();
        let mut session = Pipeline::from_shards(sharded, config).unwrap();
        session.run_all().unwrap();
        session.append_rows(extra.clone()).unwrap();
        let incremental = session.run_all().unwrap();

        // Cold: one pipeline over the concatenated matrix.
        let mut combined = RowShardedIntervalMatrix::from_dense(&base, 5).unwrap();
        combined.append_rows(extra.clone()).unwrap();
        let cold = run_all_sharded(&combined, &config).unwrap();
        assert_results_bitwise(&incremental, &cold, "append vs cold");

        // ...and identical to the dense path over the concatenation.
        let dense = combined.to_dense();
        let dense_results = run_all(&dense, &config).unwrap();
        assert_results_bitwise(&incremental, &dense_results, "append vs dense");

        // Cache accounting: the post-append ISVD2 run must *hit* the
        // seeded Gram (only downstream stages recompute).
        let gram_event = incremental[2]
            .stages
            .iter()
            .find(|e| e.stage == StageId::IntervalGram)
            .unwrap();
        assert!(
            gram_event.cache_hit,
            "appended Gram must be served from the seeded cache entry"
        );
    }

    #[test]
    fn append_rows_works_on_borrowed_dense_sessions() {
        let base = random_interval_matrix(44, 10, 6, 1.0);
        let extra = random_interval_matrix(45, 3, 6, 1.0);
        let config = IsvdConfig::new(3);
        let mut session = Pipeline::new(&base, config).unwrap();
        let before = session.run(IsvdAlgorithm::Isvd3).unwrap();
        session.append_rows(extra.clone()).unwrap();
        assert_eq!(session.shape(), (13, 6));
        let after = session.run(IsvdAlgorithm::Isvd3).unwrap();

        // Equal to a cold dense run over the concatenation.
        let mut combined = RowShardedIntervalMatrix::from_shards(vec![base.clone()]).unwrap();
        combined.append_rows(extra).unwrap();
        let cold = run_all_sharded(&combined, &config).unwrap();
        assert_eq!(after.factors.u, cold[3].factors.u);
        assert_eq!(after.factors.v, cold[3].factors.v);
        // The pre-append result was for the smaller matrix; sanity check
        // the shapes moved.
        assert_ne!(before.factors.u.shape(), after.factors.u.shape());
    }

    #[test]
    fn append_rows_validates_input_and_prunes_old_entries() {
        let base = random_interval_matrix(46, 9, 5, 1.0);
        let mut session = Pipeline::from_shards(
            RowShardedIntervalMatrix::from_dense(&base, 3).unwrap(),
            IsvdConfig::new(3),
        )
        .unwrap();
        session.run(IsvdAlgorithm::Isvd2).unwrap();
        let entries_before = session.cache().len();
        assert!(entries_before > 0);
        // Wrong width and empty appends are rejected.
        assert!(session
            .append_rows(random_interval_matrix(47, 2, 4, 1.0))
            .is_err());
        assert!(session.append_rows(IntervalMatrix::zeros(0, 5)).is_err());
        // A valid append prunes the old id's entries and seeds the Gram:
        // only the seeded entry remains.
        session
            .append_rows(random_interval_matrix(48, 2, 5, 1.0))
            .unwrap();
        assert_eq!(
            session.cache().len(),
            1,
            "old-id entries pruned, seeded Gram kept"
        );
    }

    /// A deliberately minimal lazy source over pre-cut shards of either
    /// representation (what a disk loader would do with files).
    struct VecSource<S> {
        m: ShardedIntervalMatrix<S>,
        cursor: usize,
    }

    impl<S: IntervalShard> ShardSource<S> for VecSource<S> {
        fn shape(&self) -> (usize, usize) {
            self.m.shape()
        }
        fn rewind(&mut self) -> ivmf_interval::Result<()> {
            self.cursor = 0;
            Ok(())
        }
        fn pull(&mut self) -> ivmf_interval::Result<Option<S>> {
            self.cursor += 1;
            Ok(self.m.shards().get(self.cursor - 1).cloned())
        }
    }

    fn vec_source<S: IntervalShard>(m: ShardedIntervalMatrix<S>) -> Box<VecSource<S>> {
        Box::new(VecSource { m, cursor: 0 })
    }

    #[test]
    fn lazy_shard_source_sessions_match_dense_bitwise() {
        let m = random_interval_matrix(49, 15, 10, 1.0);
        let config = IsvdConfig::new(4);
        let dense = run_all(&m, &config).unwrap();
        let shards = RowShardedIntervalMatrix::from_dense(&m, 4).unwrap();
        let mut session = Pipeline::new_streaming(vec_source(shards), config).unwrap();
        let streamed = session.run_all().unwrap();
        assert_results_bitwise(&streamed, &dense, "lazy vs dense");
        // Appends are rejected on lazy sessions.
        assert!(session
            .append_rows(random_interval_matrix(50, 2, 10, 1.0))
            .is_err());
    }

    /// A random interval matrix with only every `keep_every`-th entry
    /// stored (both bounds zeroed elsewhere, so the CSR conversion is
    /// lossless and the density is `1/keep_every`).
    fn sparse_test_matrix(
        seed: u64,
        rows: usize,
        cols: usize,
        keep_every: usize,
    ) -> IntervalMatrix {
        let dense = random_interval_matrix(seed, rows, cols, 1.0);
        let mut lo = Matrix::zeros(rows, cols);
        let mut hi = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i * cols + j) % keep_every == 0 {
                    lo[(i, j)] = dense.lo()[(i, j)];
                    hi[(i, j)] = dense.hi()[(i, j)];
                }
            }
        }
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn sparse_run_all_is_bitwise_identical_to_dense_for_every_shard_layout() {
        let m = sparse_test_matrix(51, 40, 17, 3);
        let config = IsvdConfig::new(5);
        let dense = run_all(&m, &config).unwrap();
        let csr = CsrIntervalShard::from_dense(&m);
        for shard_rows in [1usize, 3, 4, 17, 40] {
            let sharded = CsrShardedIntervalMatrix::from_csr(&csr, shard_rows).unwrap();
            let results = run_all_sharded(&sharded, &config).unwrap();
            assert_results_bitwise(&results, &dense, &format!("sparse shard_rows={shard_rows}"));
        }
    }

    #[test]
    fn sparse_sessions_share_cache_entries_across_shard_layouts() {
        let m = sparse_test_matrix(58, 33, 11, 3);
        let csr = CsrIntervalShard::from_dense(&m);
        let a = CsrShardedIntervalMatrix::from_csr(&csr, 4).unwrap();
        let b = CsrShardedIntervalMatrix::from_csr(&csr, 9).unwrap();
        // The sparse id is shard-layout-blind but representation-tagged:
        // it never equals the dense id of the same logical matrix.
        assert_eq!(matrix_id(&a), matrix_id(&b));
        assert_ne!(matrix_id(&a), matrix_id(&m));
        let mut p = Pipeline::new_sharded(&a, IsvdConfig::new(4)).unwrap();
        p.run(IsvdAlgorithm::Isvd4).unwrap();
        let cache = p.into_cache();
        let mut p2 = Pipeline::from_input(
            PipelineInput::Borrowed(b.shards()),
            IsvdConfig::new(4),
            cache,
        )
        .unwrap();
        let r = p2.run(IsvdAlgorithm::Isvd4).unwrap();
        assert_eq!(
            r.timings.cache_misses, 0,
            "re-sharded sparse session must hit"
        );
    }

    #[test]
    fn dense_sessions_auto_select_the_sparse_gram_below_the_density_cutoff() {
        // Density 1/20 = 0.05 ≤ the 0.1 default cutoff: the Gram folds
        // through the CSR accumulator (bitwise-identically, per the
        // equivalence tests above).
        let sparse_m = sparse_test_matrix(52, 30, 10, 20);
        let mut s = Pipeline::new(&sparse_m, IsvdConfig::new(3)).unwrap();
        s.run(IsvdAlgorithm::Isvd2).unwrap();
        assert!(
            s.gram_state.as_ref().unwrap().acc.is_csr(),
            "5% dense input must take the sparse Gram path"
        );

        // A fully dense matrix stays on the dense fold.
        let dense_m = random_interval_matrix(53, 30, 10, 1.0);
        let mut s = Pipeline::new(&dense_m, IsvdConfig::new(3)).unwrap();
        s.run(IsvdAlgorithm::Isvd2).unwrap();
        assert!(
            !s.gram_state.as_ref().unwrap().acc.is_csr(),
            "full-density input must keep the dense Gram path"
        );
    }

    #[test]
    fn dense_only_stages_error_instead_of_densifying_large_sparse_inputs() {
        // 3000×2000 = 6M dense entries > DENSE_STAGE_MAX_ENTRIES, but only
        // one stored entry per row — construction and hashing stay cheap.
        let rows = 3000usize;
        let cols = 2000usize;
        let triplets: Vec<(usize, usize, f64, f64)> =
            (0..rows).map(|i| (i, (i * 7) % cols, 1.0, 2.0)).collect();
        let shard = CsrIntervalShard::from_triplets(rows, cols, &triplets).unwrap();
        let sharded = CsrShardedIntervalMatrix::from_csr(&shard, 512).unwrap();
        let mut session = Pipeline::new_sharded(&sharded, IsvdConfig::new(2)).unwrap();
        let err = session.run(IsvdAlgorithm::Isvd0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("dense-only stage"), "unexpected error: {msg}");
        assert!(msg.contains("ISVD2-4"), "unexpected error: {msg}");
        assert!(session.run(IsvdAlgorithm::Isvd1).is_err());
        // The dense escape hatch is guarded identically.
        assert!(session.matrix().is_err());
    }

    #[test]
    fn lazy_csr_sources_match_dense_bitwise_and_reject_appends() {
        let m = sparse_test_matrix(54, 36, 12, 4);
        let config = IsvdConfig::new(4);
        let dense = run_all(&m, &config).unwrap();
        let sharded =
            CsrShardedIntervalMatrix::from_csr(&CsrIntervalShard::from_dense(&m), 5).unwrap();
        let mut session = Pipeline::new_streaming_csr(vec_source(sharded), config).unwrap();
        let streamed = session.run_all().unwrap();
        assert_results_bitwise(&streamed, &dense, "sparse lazy vs dense");
        assert!(session
            .append_rows(random_interval_matrix(55, 2, 12, 1.0))
            .is_err());
    }

    #[test]
    fn sparse_append_rows_matches_cold_recompute_bitwise_and_reuses_the_gram() {
        let base = sparse_test_matrix(56, 20, 9, 3);
        let extra = sparse_test_matrix(57, 6, 9, 2);
        let config = IsvdConfig::new(3);
        let mut session = Pipeline::from_shards(
            CsrShardedIntervalMatrix::from_csr(&CsrIntervalShard::from_dense(&base), 7).unwrap(),
            config,
        )
        .unwrap();
        session.run_all().unwrap();
        session
            .append_rows(CsrIntervalShard::from_dense(&extra))
            .unwrap();
        let incremental = session.run_all().unwrap();

        // Cold: the dense pipeline over the concatenation.
        let mut combined = RowShardedIntervalMatrix::from_shards(vec![base]).unwrap();
        combined.append_rows(extra).unwrap();
        let cold = run_all(&combined.to_dense(), &config).unwrap();
        assert_results_bitwise(&incremental, &cold, "sparse append vs cold dense");

        // The post-append Gram is served from the seeded cache entry.
        let gram_event = incremental[2]
            .stages
            .iter()
            .find(|e| e.stage == StageId::IntervalGram)
            .unwrap();
        assert!(
            gram_event.cache_hit,
            "appended sparse Gram must be served from the seeded entry"
        );
        // Dense sessions reject CSR appends.
        let dense_m = random_interval_matrix(59, 8, 9, 1.0);
        let mut dense_session = Pipeline::new(&dense_m, config).unwrap();
        assert!(dense_session
            .append_rows(CsrIntervalShard::from_triplets(2, 9, &[(0, 1, 1.0, 2.0)]).unwrap())
            .is_err());
    }
}
