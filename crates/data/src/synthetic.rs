//! Uniform synthetic interval matrices (Table 1 of the paper).
//!
//! A scalar base matrix is drawn uniformly at random; a configurable
//! fraction of entries is zeroed out ("matrix density: percentage of
//! 0-values"), and a configurable fraction of the remaining non-zero cells
//! is replaced by an interval whose width is uniformly chosen between 0 and
//! `intensity × value` ("interval density" / "interval intensity").
//!
//! For million-user rating workloads [`generate_power_law`] builds the
//! matrix **natively in CSR** — a fixed number of stored entries per row
//! with Zipf-distributed item popularity, the classic shape of
//! collaborative-filtering data — so generation costs `O(nnz)` and never
//! touches a dense buffer.

use rand::Rng;

use ivmf_interval::{CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix};
use ivmf_linalg::Matrix;

/// Parameters of the uniform synthetic generator (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Fraction of entries forced to zero (the paper's "matrix density:
    /// percentage of 0-values": 0.0, 0.5, 0.9).
    pub zero_fraction: f64,
    /// Fraction of the non-zero entries that become genuine intervals
    /// (the paper's "interval density", default 100%).
    pub interval_density: f64,
    /// Maximum interval width as a fraction of the cell value (the paper's
    /// "interval intensity", default 100%). The actual width of each
    /// interval is drawn uniformly from `[0, intensity × value]`.
    pub interval_intensity: f64,
    /// Lower bound of the uniform scalar values.
    pub value_min: f64,
    /// Upper bound of the uniform scalar values.
    pub value_max: f64,
}

impl SyntheticConfig {
    /// The paper's default configuration (bold values of Table 1):
    /// a 40 × 250 dense matrix, interval density 100%, intensity 100%.
    pub fn paper_default() -> Self {
        SyntheticConfig {
            rows: 40,
            cols: 250,
            zero_fraction: 0.0,
            interval_density: 1.0,
            interval_intensity: 1.0,
            value_min: 1.0,
            value_max: 10.0,
        }
    }

    /// Sets the matrix shape.
    pub fn with_shape(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Sets the fraction of zero entries.
    pub fn with_zero_fraction(mut self, f: f64) -> Self {
        self.zero_fraction = f;
        self
    }

    /// Sets the interval density (fraction of non-zero cells that become
    /// intervals).
    pub fn with_interval_density(mut self, d: f64) -> Self {
        self.interval_density = d;
        self
    }

    /// Sets the interval intensity (maximum relative interval width).
    pub fn with_interval_intensity(mut self, i: f64) -> Self {
        self.interval_intensity = i;
        self
    }

    /// The paper's default target rank for this configuration (20).
    pub fn default_rank(&self) -> usize {
        20usize.min(self.rows.min(self.cols))
    }
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig::paper_default()
    }
}

/// Generates a uniform interval matrix according to `config`.
///
/// The construction follows Section 6.1.1: interval cells are selected
/// according to the interval-density parameter and each selected scalar
/// value `v` is replaced by `[v, v + w]` where `w` is uniform in
/// `[0, intensity × v]`.
pub fn generate_uniform<R: Rng + ?Sized>(config: &SyntheticConfig, rng: &mut R) -> IntervalMatrix {
    let mut lo = Matrix::zeros(config.rows, config.cols);
    let mut hi = Matrix::zeros(config.rows, config.cols);
    for i in 0..config.rows {
        for j in 0..config.cols {
            if rng.gen::<f64>() < config.zero_fraction {
                continue;
            }
            let value = rng.gen_range(config.value_min..config.value_max);
            let (l, h) = if rng.gen::<f64>() < config.interval_density {
                let width = rng.gen::<f64>() * config.interval_intensity * value.abs();
                (value, value + width)
            } else {
                (value, value)
            };
            lo[(i, j)] = l;
            hi[(i, j)] = h;
        }
    }
    IntervalMatrix::from_bounds(lo, hi).expect("bounds share a shape")
}

/// Parameters of the power-law (Zipf item popularity) sparse generator:
/// the synthetic stand-in for million-user rating matrices, where each
/// user rates a roughly constant number of items and item popularity
/// follows a power law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Number of rows (users).
    pub rows: usize,
    /// Number of columns (items).
    pub cols: usize,
    /// Stored entries per row (each row gets exactly this many distinct
    /// columns, capped at `cols`).
    pub nnz_per_row: usize,
    /// Zipf exponent of the item-popularity distribution: column `j` is
    /// drawn with probability ∝ `1 / (j + 1)^exponent`. `0.0` degenerates
    /// to uniform column choice; rating data is typically near `1.0`.
    pub zipf_exponent: f64,
    /// Maximum interval width as a fraction of the cell value (as in
    /// [`SyntheticConfig::interval_intensity`]).
    pub interval_intensity: f64,
    /// Lower bound of the uniform scalar values.
    pub value_min: f64,
    /// Upper bound of the uniform scalar values.
    pub value_max: f64,
}

impl PowerLawConfig {
    /// A rating-matrix-shaped default: ~100 stored entries per row on a
    /// 1–5-like value scale with unit Zipf popularity.
    pub fn ratings_like(rows: usize, cols: usize) -> Self {
        PowerLawConfig {
            rows,
            cols,
            nnz_per_row: 100,
            zipf_exponent: 1.0,
            interval_intensity: 0.5,
            value_min: 1.0,
            value_max: 5.0,
        }
    }

    /// Sets the stored entries per row.
    pub fn with_nnz_per_row(mut self, nnz: usize) -> Self {
        self.nnz_per_row = nnz;
        self
    }

    /// Sets the Zipf exponent.
    pub fn with_zipf_exponent(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Density of the generated matrix (`nnz_per_row / cols`).
    pub fn density(&self) -> f64 {
        if self.cols == 0 {
            return 0.0;
        }
        self.nnz_per_row.min(self.cols) as f64 / self.cols as f64
    }
}

/// Cumulative Zipf weights over the columns: `cdf[j]` is the normalized
/// probability of drawing a column `≤ j`.
fn zipf_cdf(cols: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(cols);
    let mut total = 0.0;
    for j in 0..cols {
        total += 1.0 / ((j + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws `k` distinct columns from the Zipf distribution, returned in
/// ascending order (CSR-ready). Rejection-samples duplicates; if the Zipf
/// head keeps colliding the remainder is filled with the smallest unused
/// columns, which only sharpens the power-law popularity skew.
fn sample_row_columns<R: Rng + ?Sized>(cdf: &[f64], k: usize, rng: &mut R) -> Vec<usize> {
    let cols = cdf.len();
    let k = k.min(cols);
    let mut picked = std::collections::BTreeSet::new();
    let max_attempts = 30 * k + 100;
    let mut attempts = 0;
    while picked.len() < k && attempts < max_attempts {
        attempts += 1;
        let u: f64 = rng.gen();
        let j = cdf.partition_point(|&c| c < u).min(cols - 1);
        picked.insert(j);
    }
    let mut fill = 0;
    while picked.len() < k {
        picked.insert(fill);
        fill += 1;
    }
    picked.into_iter().collect()
}

/// Generates a power-law sparse interval matrix natively in CSR: each row
/// stores `nnz_per_row` entries at Zipf-popular columns, each entry a
/// uniform value `v` widened to `[v, v + w]` with `w` uniform in
/// `[0, intensity × v]` (the construction of [`generate_uniform`], applied
/// to the stored entries only). Generation is `O(nnz log cols)` with no
/// dense intermediate, so million-row matrices are cheap to produce.
pub fn generate_power_law<R: Rng + ?Sized>(
    config: &PowerLawConfig,
    rng: &mut R,
) -> CsrIntervalShard {
    let cdf = zipf_cdf(config.cols, config.zipf_exponent);
    let nnz_estimate = config.rows * config.nnz_per_row.min(config.cols);
    let mut row_ptr = Vec::with_capacity(config.rows + 1);
    let mut col_idx = Vec::with_capacity(nnz_estimate);
    let mut lo = Vec::with_capacity(nnz_estimate);
    let mut hi = Vec::with_capacity(nnz_estimate);
    row_ptr.push(0);
    for _ in 0..config.rows {
        for j in sample_row_columns(&cdf, config.nnz_per_row, rng) {
            let value = rng.gen_range(config.value_min..config.value_max);
            let width = rng.gen::<f64>() * config.interval_intensity * value.abs();
            col_idx.push(j);
            lo.push(value);
            hi.push(value + width);
        }
        row_ptr.push(col_idx.len());
    }
    CsrIntervalShard::new(config.rows, config.cols, row_ptr, col_idx, lo, hi)
        .expect("pattern built in row-major order is structurally valid")
}

/// [`generate_power_law`] cut into row shards of at most `shard_rows`
/// rows. The random stream is consumed row by row, so the result holds
/// exactly the entries of a single-shard generation from the same seed —
/// only the shard boundaries differ.
pub fn generate_power_law_sharded<R: Rng + ?Sized>(
    config: &PowerLawConfig,
    shard_rows: usize,
    rng: &mut R,
) -> CsrShardedIntervalMatrix {
    let whole = generate_power_law(config, rng);
    CsrShardedIntervalMatrix::from_csr(&whole, shard_rows.max(1))
        .expect("generated shard is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_config_matches_paper() {
        let c = SyntheticConfig::paper_default();
        assert_eq!((c.rows, c.cols), (40, 250));
        assert_eq!(c.interval_density, 1.0);
        assert_eq!(c.interval_intensity, 1.0);
        assert_eq!(c.zero_fraction, 0.0);
        assert_eq!(c.default_rank(), 20);
        assert_eq!(SyntheticConfig::default(), c);
    }

    #[test]
    fn generated_matrix_has_requested_shape_and_is_proper() {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = SyntheticConfig::paper_default().with_shape(25, 30);
        let m = generate_uniform(&config, &mut rng);
        assert_eq!(m.shape(), (25, 30));
        assert!(m.is_proper());
        assert!(!m.has_non_finite());
    }

    #[test]
    fn zero_fraction_controls_sparsity() {
        let mut rng = SmallRng::seed_from_u64(2);
        let config = SyntheticConfig::paper_default()
            .with_shape(60, 60)
            .with_zero_fraction(0.5);
        let m = generate_uniform(&config, &mut rng);
        let zf = m.zero_fraction();
        assert!((zf - 0.5).abs() < 0.06, "zero fraction {zf}");
        let dense = generate_uniform(
            &SyntheticConfig::paper_default().with_shape(30, 30),
            &mut rng,
        );
        assert_eq!(dense.zero_fraction(), 0.0);
    }

    #[test]
    fn interval_density_controls_interval_fraction() {
        let mut rng = SmallRng::seed_from_u64(3);
        let config = SyntheticConfig::paper_default()
            .with_shape(60, 60)
            .with_interval_density(0.25);
        let m = generate_uniform(&config, &mut rng);
        let d = m.interval_density();
        assert!((d - 0.25).abs() < 0.06, "interval density {d}");
        // Zero density produces a scalar matrix.
        let scalar = generate_uniform(
            &SyntheticConfig::paper_default()
                .with_shape(20, 20)
                .with_interval_density(0.0),
            &mut rng,
        );
        assert!(scalar.is_scalar());
    }

    #[test]
    fn interval_intensity_bounds_relative_width() {
        let mut rng = SmallRng::seed_from_u64(4);
        let config = SyntheticConfig::paper_default()
            .with_shape(40, 40)
            .with_interval_intensity(0.25);
        let m = generate_uniform(&config, &mut rng);
        for i in 0..40 {
            for j in 0..40 {
                let (lo, hi) = m.get_raw(i, j);
                if lo != 0.0 {
                    assert!(hi - lo <= 0.25 * lo + 1e-12, "width too large at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn values_respect_the_configured_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = generate_uniform(
            &SyntheticConfig::paper_default().with_shape(20, 20),
            &mut rng,
        );
        for &x in m.lo().as_slice() {
            assert!(x == 0.0 || (1.0..10.0).contains(&x));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let config = SyntheticConfig::paper_default().with_shape(10, 10);
        let a = generate_uniform(&config, &mut SmallRng::seed_from_u64(42));
        let b = generate_uniform(&config, &mut SmallRng::seed_from_u64(42));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn power_law_generator_is_sparse_and_zipf_skewed() {
        let mut rng = SmallRng::seed_from_u64(8);
        let config = PowerLawConfig::ratings_like(200, 500).with_nnz_per_row(20);
        assert!((config.density() - 0.04).abs() < 1e-12);
        let m = generate_power_law(&config, &mut rng);
        assert_eq!(m.shape(), (200, 500));
        assert_eq!(m.nnz(), 200 * 20);
        // Zipf skew: the first 10% of columns receive far more than their
        // uniform share (10%) of the stored entries.
        let mut head = 0usize;
        for i in 0..200 {
            let (cols, lo, hi) = m.row_entries(i);
            head += cols.iter().filter(|&&c| c < 50).count();
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} not sorted");
            for (&l, &h) in lo.iter().zip(hi) {
                assert!((1.0..5.0).contains(&l) && h >= l, "bad entry [{l}, {h}]");
            }
        }
        assert!(
            head as f64 > 0.3 * m.nnz() as f64,
            "Zipf head share too small: {head} of {}",
            m.nnz()
        );
    }

    #[test]
    fn power_law_caps_at_full_rows_and_handles_steep_exponents() {
        let mut rng = SmallRng::seed_from_u64(9);
        // nnz_per_row beyond cols: rows saturate without looping forever.
        let full = generate_power_law(
            &PowerLawConfig::ratings_like(4, 6).with_nnz_per_row(50),
            &mut rng,
        );
        assert_eq!(full.nnz(), 4 * 6);
        // A steep exponent concentrates draws on very few columns; the
        // deterministic fill still delivers the requested count.
        let steep = generate_power_law(
            &PowerLawConfig::ratings_like(10, 100)
                .with_nnz_per_row(8)
                .with_zipf_exponent(4.0),
            &mut rng,
        );
        assert_eq!(steep.nnz(), 80);
    }

    #[test]
    fn sharded_power_law_matches_single_shard_generation() {
        let config = PowerLawConfig::ratings_like(57, 120).with_nnz_per_row(9);
        let whole = generate_power_law(&config, &mut SmallRng::seed_from_u64(10));
        let sharded = generate_power_law_sharded(&config, 10, &mut SmallRng::seed_from_u64(10));
        assert_eq!(sharded.num_shards(), 6);
        assert_eq!(sharded.nnz(), whole.nnz());
        assert_eq!(sharded.to_dense(), whole.to_dense());
    }
}
