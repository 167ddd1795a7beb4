//! Order statistics for timing samples.

/// Sorts `values` ascending (timings are finite, so `total_cmp` is the numeric order).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at least
/// `q·n` samples at or below it. `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, q) - 1],
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    quantile(&values, 0.5)
}

/// Whether quantile `q` of `n` samples has at least ten samples beyond it — the rule
/// under which a tail percentile is reported at all: with fewer, one slow outlier *is*
/// the percentile.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// Median, p90 and (when supported) p99 of one sample of latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Summary {
        sort(&mut values);
        Summary {
            n: values.len(),
            p50: quantile(&values, 0.5),
            p90: quantile(&values, 0.9),
            p99: supported(values.len(), 0.99).then(|| quantile(&values, 0.99)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
        // p99 needs a thousand.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // The median needs twenty.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn summary_withholds_an_unsupported_p99() {
        let s = Summary::of((1..=150).map(f64::from).collect());
        assert_eq!((s.n, s.p50, s.p90, s.p99), (150, 75.0, 135.0, None));
        let s = Summary::of((1..=1000).map(f64::from).collect());
        assert_eq!(s.p99, Some(990.0));
    }
}
