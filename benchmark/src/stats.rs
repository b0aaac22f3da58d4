//! Summary statistics: medians and quartiles, the highest percentile a
//! sample supports, geometric means.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Linear interpolation at rank `p · (n − 1)` of an already sorted sample.
fn at(sorted: &[f64], p: f64) -> f64 {
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `p`-quantile (0..1) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    at(&sorted(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn summary(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let s = sorted(values);
    Summary {
        median: at(&s, 0.5),
        q1: at(&s, 0.25),
        q3: at(&s, 0.75),
        n: s.len(),
    }
}

/// The percentile to report when `wanted` was asked for: `wanted` itself
/// when at least ten samples lie beyond it, otherwise the highest one that
/// still has ten beyond it, and never below the median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = 1.0 - 10.0 / n as f64;
    wanted.min(highest).max(0.5)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summary(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_hits_both_ends() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
    }

    #[test]
    fn percentile_drops_until_ten_samples_lie_beyond() {
        assert_eq!(supported_percentile(1000, 0.9), 0.9);
        assert_eq!(supported_percentile(100, 0.9), 0.9);
        // 80 samples: ten beyond p87.5.
        assert_eq!(supported_percentile(80, 0.9), 0.875);
        assert_eq!(supported_percentile(40, 0.9), 0.75);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(12, 0.9), 0.5);
        assert_eq!(supported_percentile(0, 0.9), 0.5);
    }

    #[test]
    fn geomean_is_scale_fair() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
