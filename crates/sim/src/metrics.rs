//! Summary statistics and CDFs for experiment reporting.

/// Summary statistics over a set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample set.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_sim::metrics::Summary;
    ///
    /// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(s.mean, 2.5);
    /// assert_eq!(s.min, 1.0);
    /// assert_eq!(s.max, 4.0);
    /// ```
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let count = sorted.len();
        Some(Summary {
            count,
            mean: sorted.iter().sum::<f64>() / count as f64,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        })
    }
}

/// Nearest-rank percentile over pre-sorted data (shared with the
/// streaming [`crate::online`] reservoir so exhaustive-reservoir
/// quantiles match retained summaries bit-for-bit).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// An empirical cumulative distribution function.
///
/// Answers the fraction of samples at or below a value and its inverse,
/// the quantile, which the paper's CDF figures (Figs. 14–17) are read
/// at.
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `value`.
    pub fn fraction_at(&self, value: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= value);
        idx as f64 / self.sorted.len() as f64
    }

    /// The value below which `q` of the samples fall (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "empty CDF has no quantiles");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        percentile(&self.sorted, q.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.count, 100);
    }

    #[test]
    fn cdf_fraction_monotone() {
        let cdf = Cdf::new([3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(1.0), 0.25);
        assert_eq!(cdf.fraction_at(2.0), 0.75);
        assert_eq!(cdf.fraction_at(10.0), 1.0);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::new((1..=10).map(|i| i as f64));
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::new([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at(1.0), 0.0);
    }
}
