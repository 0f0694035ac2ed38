//! Per-job latency breakdowns and bucketed time series.
//!
//! The runtime layer (in `cloudqc-core`) decomposes each job's
//! completion time into *queueing* (arrival → admission), *EPR wait*
//! (ticks with at least one EPR generation round in flight) and
//! *compute* (the rest of the service time). [`TimeSeries`] accumulates
//! throughput curves over fixed-width buckets, for the saturation views
//! the paper's multi-tenant figures imply.

use crate::time::Tick;

/// Where one job's completion time went, in ticks.
///
/// `total() = queueing + epr_wait + compute`; the service time (from
/// admission to finish) is `epr_wait + compute`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Ticks spent waiting for admission (arrival → placement).
    pub queueing: u64,
    /// Ticks of the service time with ≥ 1 EPR round in flight (the
    /// job was blocked on, or overlapping with, entanglement
    /// generation).
    pub epr_wait: u64,
    /// The remaining service ticks: purely local computation.
    pub compute: u64,
}

impl LatencyBreakdown {
    /// Builds a breakdown from its three components.
    pub fn new(queueing: u64, epr_wait: u64, compute: u64) -> Self {
        LatencyBreakdown {
            queueing,
            epr_wait,
            compute,
        }
    }

    /// The full completion time this breakdown decomposes.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_sim::series::LatencyBreakdown;
    ///
    /// let b = LatencyBreakdown::new(100, 40, 60);
    /// assert_eq!(b.total(), 200);
    /// ```
    pub fn total(&self) -> u64 {
        self.queueing + self.epr_wait + self.compute
    }

    /// Component-wise mean over several breakdowns (`None` if empty).
    pub fn mean_of(samples: &[LatencyBreakdown]) -> Option<MeanBreakdown> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        Some(MeanBreakdown {
            queueing: samples.iter().map(|b| b.queueing as f64).sum::<f64>() / n,
            epr_wait: samples.iter().map(|b| b.epr_wait as f64).sum::<f64>() / n,
            compute: samples.iter().map(|b| b.compute as f64).sum::<f64>() / n,
        })
    }
}

/// Component-wise mean of many [`LatencyBreakdown`]s.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MeanBreakdown {
    /// Mean queueing ticks.
    pub queueing: f64,
    /// Mean EPR-wait ticks.
    pub epr_wait: f64,
    /// Mean compute ticks.
    pub compute: f64,
}

impl MeanBreakdown {
    /// Mean total completion time.
    pub fn total(&self) -> f64 {
        self.queueing + self.epr_wait + self.compute
    }
}

/// A time series over fixed-width tick buckets: each point event
/// ([`TimeSeries::add`], e.g. one completed job) lands in the bucket of
/// its tick, which makes a throughput curve.
///
/// # Example
///
/// ```
/// use cloudqc_sim::series::TimeSeries;
/// use cloudqc_sim::Tick;
///
/// let mut ts = TimeSeries::new(100);
/// ts.add(Tick::new(30), 1.0); // a completion in bucket 0
/// ts.add(Tick::new(130), 1.0); // one in bucket 1
/// ts.add(Tick::new(180), 1.0); // another in bucket 1
/// assert_eq!(ts.buckets(), &[1.0, 2.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    bucket_width: u64,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// An empty series with the given bucket width in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// Adds `value` to the bucket containing `t`.
    pub fn add(&mut self, t: Tick, value: f64) {
        let idx = (t.as_ticks() / self.bucket_width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value;
    }

    /// Bucket totals, index `i` covering
    /// `[i·bucket_width, (i+1)·bucket_width)`. Empty trailing buckets
    /// are not materialized.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }
}

/// Distribution of same-tick event batch sizes: `counts()[s]` is the
/// number of executor ticks that drained exactly `s` events in one
/// round. Size 0 is never recorded (a tick only exists because some
/// event fired at it).
///
/// # Example
///
/// ```
/// use cloudqc_sim::series::BatchStats;
///
/// let mut b = BatchStats::default();
/// b.record(1);
/// b.record(3);
/// b.record(3);
/// assert_eq!(b.ticks(), 3);
/// assert_eq!(b.events(), 7);
/// assert_eq!(b.max(), 3);
/// assert!((b.mean() - 7.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    counts: Vec<u64>,
}

impl BatchStats {
    /// Records one tick that drained `size` events.
    pub fn record(&mut self, size: usize) {
        if size == 0 {
            return;
        }
        if self.counts.len() <= size {
            self.counts.resize(size + 1, 0);
        }
        self.counts[size] += 1;
    }

    /// Tick count per batch size (index = events drained in that tick).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total ticks recorded.
    pub fn ticks(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total events across all recorded ticks.
    pub fn events(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum()
    }

    /// Mean events per tick (0 if nothing was recorded).
    pub fn mean(&self) -> f64 {
        let ticks = self.ticks();
        if ticks == 0 {
            return 0.0;
        }
        self.events() as f64 / ticks as f64
    }

    /// The largest batch drained in one tick (0 if nothing recorded).
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    /// Folds another distribution into this one (size-wise sum) — how a
    /// long-lived service accumulates per-epoch executor stats into
    /// lifetime totals.
    pub fn merge(&mut self, other: &BatchStats) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (size, &n) in other.counts.iter().enumerate() {
            self.counts[size] += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats_ignore_empty_ticks() {
        let mut b = BatchStats::default();
        b.record(0);
        assert_eq!(b.ticks(), 0);
        assert_eq!(b.max(), 0);
        assert_eq!(b.mean(), 0.0);
        b.record(2);
        b.record(0);
        assert_eq!(b.counts(), &[0, 0, 1]);
        assert_eq!(b.events(), 2);
    }

    #[test]
    fn batch_stats_merge_sums_sizewise() {
        let mut a = BatchStats::default();
        a.record(1);
        a.record(3);
        let mut b = BatchStats::default();
        b.record(3);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.ticks(), 4);
        assert_eq!(a.events(), 1 + 3 + 3 + 5);
        assert_eq!(a.max(), 5);
        a.merge(&BatchStats::default());
        assert_eq!(a.ticks(), 4);
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = LatencyBreakdown::new(50, 30, 20);
        assert_eq!(b.total(), 100);
        assert_eq!(LatencyBreakdown::default().total(), 0);
    }

    #[test]
    fn breakdown_mean() {
        let mean = LatencyBreakdown::mean_of(&[
            LatencyBreakdown::new(10, 0, 10),
            LatencyBreakdown::new(30, 4, 20),
        ])
        .unwrap();
        assert_eq!(mean.queueing, 20.0);
        assert_eq!(mean.epr_wait, 2.0);
        assert_eq!(mean.compute, 15.0);
        assert_eq!(mean.total(), 37.0);
        assert_eq!(LatencyBreakdown::mean_of(&[]), None);
    }

    #[test]
    fn point_accumulation() {
        let mut ts = TimeSeries::new(10);
        ts.add(Tick::new(0), 1.0);
        ts.add(Tick::new(9), 1.0);
        ts.add(Tick::new(10), 1.0);
        ts.add(Tick::new(35), 2.0);
        assert_eq!(ts.buckets(), &[2.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_panics() {
        TimeSeries::new(0);
    }
}
