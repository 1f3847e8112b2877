//! Order statistics used by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks — the "R-7" rule (`numpy.percentile`'s default). `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile a timing may be reported at: the highest whole
/// percentile, capped at `cap`, with at least ten samples strictly beyond
/// it. `None` when even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    if n == 0 {
        return None;
    }
    (50..=cap).rev().find(|&p| {
        // Sorted samples strictly above the interpolation point of
        // `percentile` (0-based position p/100·(n−1)).
        let pos = (f64::from(p) / 100.0 * (n - 1) as f64).floor() as usize;
        n - 1 - pos >= 10
    })
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten above it.
        assert_eq!(tail_percentile(19, 95), None);
        assert_eq!(tail_percentile(20, 95), Some(52));
        // 100 samples: p90 leaves exactly ten beyond, p91 only nine.
        assert_eq!(tail_percentile(100, 95), Some(90));
        // 200 samples reach the cap.
        assert_eq!(tail_percentile(200, 95), Some(95));
        assert_eq!(tail_percentile(10_000, 95), Some(95));
        assert_eq!(tail_percentile(150, 95), Some(93));
    }
}
