//! Anonymized interval matrices through value generalization
//! (Section 6.1.1, "anonymized matrices").
//!
//! A scalar value is *generalized* by replacing it with the interval of the
//! bin it falls into; coarser bins mean stronger anonymization. The paper
//! uses four generalization levels — L1 splits the value domain into 100
//! bins, L2 into 50, L3 into 20, L4 into 5 — and mixes them per-cell with
//! three privacy profiles:
//!
//! | profile | L1 | L2 | L3 | L4 |
//! |---|---|---|---|---|
//! | high privacy   | 10% | 20% | 30% | 40% |
//! | medium privacy | 25% | 25% | 25% | 25% |
//! | low privacy    | 40% | 30% | 20% | 10% |

use rand::Rng;

use ivmf_interval::IntervalMatrix;
use ivmf_linalg::Matrix;

/// Number of bins of each generalization level (L1..L4).
pub const GENERALIZATION_BINS: [usize; 4] = [100, 50, 20, 5];

/// A per-cell mixture of the four generalization levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrivacyProfile {
    /// L1:10%, L2:20%, L3:30%, L4:40% — mostly coarse bins.
    High,
    /// L1:25%, L2:25%, L3:25%, L4:25%.
    Medium,
    /// L1:40%, L2:30%, L3:20%, L4:10% — mostly fine bins.
    Low,
    /// A custom mixture (weights are normalized internally).
    Custom([f64; 4]),
}

impl PrivacyProfile {
    /// The mixture weights over (L1, L2, L3, L4), normalized to sum to 1.
    pub fn weights(&self) -> [f64; 4] {
        let raw = match self {
            PrivacyProfile::High => [0.10, 0.20, 0.30, 0.40],
            PrivacyProfile::Medium => [0.25, 0.25, 0.25, 0.25],
            PrivacyProfile::Low => [0.40, 0.30, 0.20, 0.10],
            PrivacyProfile::Custom(w) => *w,
        };
        let sum: f64 = raw.iter().sum();
        if sum <= 0.0 {
            [0.25; 4]
        } else {
            [raw[0] / sum, raw[1] / sum, raw[2] / sum, raw[3] / sum]
        }
    }

    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PrivacyProfile::High => "high-privacy",
            PrivacyProfile::Medium => "medium-privacy",
            PrivacyProfile::Low => "low-privacy",
            PrivacyProfile::Custom(_) => "custom",
        }
    }

    /// The three profiles evaluated in Figure 7 of the paper.
    pub fn paper_profiles() -> [PrivacyProfile; 3] {
        [
            PrivacyProfile::High,
            PrivacyProfile::Medium,
            PrivacyProfile::Low,
        ]
    }
}

/// Generalizes a single scalar `value` from the domain `[domain_min,
/// domain_max]` into the interval of its bin at the given level
/// (0 = L1 … 3 = L4).
pub fn generalize_value(value: f64, domain_min: f64, domain_max: f64, level: usize) -> (f64, f64) {
    let bins = GENERALIZATION_BINS[level.min(3)] as f64;
    let span = (domain_max - domain_min).max(f64::MIN_POSITIVE);
    let normalized = ((value - domain_min) / span).clamp(0.0, 1.0);
    let bin = (normalized * bins).floor().min(bins - 1.0);
    let lo = domain_min + bin / bins * span;
    let hi = domain_min + (bin + 1.0) / bins * span;
    (lo, hi)
}

/// Generates an anonymized interval matrix: a uniform scalar matrix over
/// `[domain_min, domain_max]` in which every entry is generalized at a
/// level drawn from the privacy profile's mixture.
pub fn generate_anonymized<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    profile: PrivacyProfile,
    rng: &mut R,
) -> IntervalMatrix {
    let (domain_min, domain_max) = (0.0, 10.0);
    let base = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(domain_min..domain_max));
    anonymize_matrix(&base, domain_min, domain_max, profile, rng)
}

/// Anonymizes an existing scalar matrix with the given privacy profile.
pub fn anonymize_matrix<R: Rng + ?Sized>(
    base: &Matrix,
    domain_min: f64,
    domain_max: f64,
    profile: PrivacyProfile,
    rng: &mut R,
) -> IntervalMatrix {
    let weights = profile.weights();
    let mut lo = Matrix::zeros(base.rows(), base.cols());
    let mut hi = Matrix::zeros(base.rows(), base.cols());
    for i in 0..base.rows() {
        for j in 0..base.cols() {
            let level = sample_level(&weights, rng);
            let (l, h) = generalize_value(base[(i, j)], domain_min, domain_max, level);
            lo[(i, j)] = l;
            hi[(i, j)] = h;
        }
    }
    IntervalMatrix::from_bounds(lo, hi).expect("bounds share a shape")
}

fn sample_level<R: Rng + ?Sized>(weights: &[f64; 4], rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (level, &w) in weights.iter().enumerate() {
        acc += w;
        if x < acc {
            return level;
        }
    }
    3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn profile_weights_are_normalized() {
        for p in PrivacyProfile::paper_profiles() {
            let w = p.weights();
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        let custom = PrivacyProfile::Custom([2.0, 2.0, 2.0, 2.0]);
        assert_eq!(custom.weights(), [0.25; 4]);
        let degenerate = PrivacyProfile::Custom([0.0; 4]);
        assert_eq!(degenerate.weights(), [0.25; 4]);
        assert_eq!(PrivacyProfile::High.label(), "high-privacy");
    }

    #[test]
    fn generalization_contains_original_value() {
        for level in 0..4 {
            for &v in &[0.0, 0.37, 5.21, 9.999] {
                let (lo, hi) = generalize_value(v, 0.0, 10.0, level);
                assert!(
                    lo <= v + 1e-12 && v <= hi + 1e-12,
                    "level {level} value {v}"
                );
            }
        }
    }

    #[test]
    fn coarser_levels_have_wider_bins() {
        let widths: Vec<f64> = (0..4)
            .map(|level| {
                let (lo, hi) = generalize_value(3.33, 0.0, 10.0, level);
                hi - lo
            })
            .collect();
        for w in widths.windows(2) {
            assert!(
                w[1] >= w[0],
                "bin widths should grow with the level: {widths:?}"
            );
        }
        // L4 splits [0,10] into 5 bins of width 2.
        assert!((widths[3] - 2.0).abs() < 1e-12);
        // L1 splits it into 100 bins of width 0.1.
        assert!((widths[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn generated_matrix_is_proper_and_contains_base_values() {
        let mut rng = SmallRng::seed_from_u64(9);
        let base = Matrix::from_fn(20, 15, |_, _| rng.gen_range(0.0..10.0));
        let anon = anonymize_matrix(&base, 0.0, 10.0, PrivacyProfile::Medium, &mut rng);
        assert!(anon.is_proper());
        assert!(anon.contains_matrix(&base, 1e-9));
    }

    #[test]
    fn higher_privacy_means_wider_intervals_on_average() {
        let mut rng = SmallRng::seed_from_u64(10);
        let base = Matrix::from_fn(40, 40, |_, _| rng.gen_range(0.0..10.0));
        let span_of = |p: PrivacyProfile, rng: &mut SmallRng| {
            anonymize_matrix(&base, 0.0, 10.0, p, rng).mean_span()
        };
        let high = span_of(PrivacyProfile::High, &mut rng);
        let medium = span_of(PrivacyProfile::Medium, &mut rng);
        let low = span_of(PrivacyProfile::Low, &mut rng);
        assert!(
            high > medium && medium > low,
            "high={high}, medium={medium}, low={low}"
        );
    }

    #[test]
    fn generate_anonymized_has_requested_shape() {
        let mut rng = SmallRng::seed_from_u64(11);
        let m = generate_anonymized(12, 18, PrivacyProfile::High, &mut rng);
        assert_eq!(m.shape(), (12, 18));
        assert!(m.is_proper());
    }

    #[test]
    fn boundary_values_stay_in_domain() {
        let (lo, hi) = generalize_value(10.0, 0.0, 10.0, 3);
        assert!(lo >= 0.0 && hi <= 10.0 + 1e-12);
        let (lo2, _) = generalize_value(-5.0, 0.0, 10.0, 0);
        assert_eq!(lo2, 0.0);
    }
}
