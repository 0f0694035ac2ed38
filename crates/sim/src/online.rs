//! Constant-memory streaming metrics for long-lived service runs.
//!
//! A resident service (see `cloudqc-core`'s `runtime::service`) cannot
//! afford the retain-everything [`crate::metrics::Summary`] path: over
//! an unbounded job stream the per-job outcome vector grows without
//! limit. [`OnlineReport`] replaces it with
//!
//! * [`RunningStat`] — Welford running aggregates (count, mean, min,
//!   max) in O(1) memory per tracked series, and
//! * [`Reservoir`] — a seeded, bounded reservoir sample (Vitter's
//!   Algorithm R) over completion times, so percentiles stay available
//!   at a fixed memory cost with a known tolerance: with fewer
//!   completions than the reservoir's capacity the sample is exhaustive
//!   and quantiles are *exact* (identical to the retained
//!   [`crate::metrics::Summary`]); beyond it they are unbiased
//!   estimates.
//!
//! Everything is deterministic per seed: the reservoir's replacement
//! stream is a forked [`SimRng`], so two services fed the same
//! completions in the same order report identical quantiles.

use crate::metrics::percentile;
use crate::rng::SimRng;
use crate::series::{LatencyBreakdown, MeanBreakdown};
use crate::time::Tick;
use rand::rngs::StdRng;
use rand::RngExt;

/// Welford running aggregates over a stream of samples: constant
/// memory, a numerically stable mean, exact min/max/count.
///
/// # Example
///
/// ```
/// use cloudqc_sim::online::RunningStat;
///
/// let mut s = RunningStat::default();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunningStat {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Folds one sample into the aggregates.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 before any sample).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (0 before any sample).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 before any sample).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Folds another stream's aggregates into this one (Chan et al.'s
    /// parallel Welford combine): the result is exactly what one stat
    /// fed both streams would hold — count, mean, min, and max are all
    /// order-insensitive. This is how a fleet of services merges
    /// per-backend streams into one report.
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        self.mean += (other.mean - self.mean) * n2 / (n1 + n2);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bounded, seed-deterministic uniform sample over a stream
/// (Vitter's Algorithm R): each of the `n` items seen so far is
/// retained with probability `capacity / n`.
///
/// # Example
///
/// ```
/// use cloudqc_sim::online::Reservoir;
///
/// let mut r = Reservoir::new(4, 7);
/// for x in 0..3 {
///     r.record(x as f64);
/// }
/// // Under capacity the sample is exhaustive: quantiles are exact.
/// assert_eq!(r.len(), 3);
/// assert_eq!(r.quantile(0.5), Some(1.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<f64>,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` samples, with a
    /// seeded replacement stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::new(),
            rng: SimRng::new(seed).fork("reservoir").into_std(),
        }
    }

    /// Offers one sample to the reservoir.
    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(x);
            return;
        }
        // Algorithm R: the i-th item replaces a random slot with
        // probability capacity / i.
        let j = self.rng.random_range(0..self.seen);
        if (j as usize) < self.capacity {
            self.samples[j as usize] = x;
        }
    }

    /// The sample cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples offered (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the sample is still exhaustive (every offered value is
    /// retained), i.e. quantiles are exact rather than estimates.
    pub fn is_exhaustive(&self) -> bool {
        self.seen <= self.capacity as u64
    }

    /// Nearest-rank quantile over the retained sample (`None` when
    /// empty). Exact while [`Reservoir::is_exhaustive`]; an unbiased
    /// estimate afterwards. Each call sorts a copy of the retained
    /// sample, at most [`Reservoir::capacity`] values.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Some(percentile(&sorted, q.max(f64::MIN_POSITIVE)))
    }

    /// Folds another reservoir's retained sample into this one,
    /// deterministically. While both sides are still exhaustive and
    /// their union fits this reservoir's capacity, the result is the
    /// exact union (quantiles stay exact). Beyond that the merge is an
    /// approximation: the other side's *retained* samples are offered
    /// through the normal seeded replacement stream (its already-evicted
    /// tail cannot be recovered), and `seen` sums so
    /// [`Reservoir::is_exhaustive`] stays honest for the combined
    /// stream. Good enough for fleet-level percentile estimates; exact
    /// per-backend reservoirs remain available on each service.
    pub fn merge(&mut self, other: &Reservoir) {
        let seen_before = self.seen;
        for &x in &other.samples {
            self.record(x);
        }
        // `record` counted only the retained offers; account for the
        // other side's full stream length instead.
        self.seen = seen_before + other.seen;
    }
}

/// Streaming run metrics for a long-lived service: the constant-memory
/// counterpart of the runtime's retained per-job report.
///
/// Tracks completion times (running aggregates + a bounded reservoir
/// for percentiles), the component-wise latency breakdown, the
/// rejection count, and the last completion tick — enough to answer the
/// `incoming`-style questions (mean/p95 JCT, throughput, where the
/// latency went) without retaining a single per-job record.
///
/// # Example
///
/// ```
/// use cloudqc_sim::online::OnlineReport;
/// use cloudqc_sim::series::LatencyBreakdown;
/// use cloudqc_sim::Tick;
///
/// let mut r = OnlineReport::new(7);
/// r.record_completion(Tick::new(200), LatencyBreakdown::new(100, 40, 60), Tick::new(500));
/// r.record_completion(Tick::new(100), LatencyBreakdown::new(0, 40, 60), Tick::new(800));
/// r.record_rejection();
/// assert_eq!(r.completed(), 2);
/// assert_eq!(r.rejected(), 1);
/// assert!((r.mean_completion_time() - 150.0).abs() < 1e-12);
/// assert_eq!(r.last_finish(), Tick::new(800));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineReport {
    completion: RunningStat,
    queueing: RunningStat,
    epr_wait: RunningStat,
    compute: RunningStat,
    reservoir: Reservoir,
    rejected: u64,
    last_finish: Tick,
}

impl OnlineReport {
    /// Default reservoir capacity: exact percentiles for any epoch of
    /// up to this many completions, fixed memory beyond.
    pub const DEFAULT_RESERVOIR: usize = 1024;

    /// An empty report with the default reservoir capacity. The seed
    /// drives the reservoir's replacement stream only.
    pub fn new(seed: u64) -> Self {
        Self::with_reservoir(Self::DEFAULT_RESERVOIR, seed)
    }

    /// An empty report with an explicit reservoir capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_reservoir(capacity: usize, seed: u64) -> Self {
        OnlineReport {
            completion: RunningStat::default(),
            queueing: RunningStat::default(),
            epr_wait: RunningStat::default(),
            compute: RunningStat::default(),
            reservoir: Reservoir::new(capacity, seed),
            rejected: 0,
            last_finish: Tick::ZERO,
        }
    }

    /// Folds one completed job into the aggregates.
    pub fn record_completion(
        &mut self,
        completion_time: Tick,
        breakdown: LatencyBreakdown,
        finished_at: Tick,
    ) {
        let jct = completion_time.as_ticks() as f64;
        self.completion.record(jct);
        self.queueing.record(breakdown.queueing as f64);
        self.epr_wait.record(breakdown.epr_wait as f64);
        self.compute.record(breakdown.compute as f64);
        self.reservoir.record(jct);
        self.last_finish = self.last_finish.max(finished_at);
    }

    /// Counts one rejected job.
    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completion.count()
    }

    /// Jobs rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Running mean completion time in ticks (0 before any completion).
    pub fn mean_completion_time(&self) -> f64 {
        self.completion.mean()
    }

    /// Largest completion time seen (0 before any completion).
    pub fn max_completion_time(&self) -> f64 {
        self.completion.max()
    }

    /// Component-wise mean latency breakdown (`None` before any
    /// completion).
    pub fn mean_breakdown(&self) -> Option<MeanBreakdown> {
        if self.completion.count() == 0 {
            return None;
        }
        Some(MeanBreakdown {
            queueing: self.queueing.mean(),
            epr_wait: self.epr_wait.mean(),
            compute: self.compute.mean(),
        })
    }

    /// The latest completion tick seen (the running makespan).
    pub fn last_finish(&self) -> Tick {
        self.last_finish
    }

    /// Completed jobs per tick up to the last completion (0 before any
    /// completion) — the constant-memory throughput view.
    pub fn throughput_per_tick(&self) -> f64 {
        if self.last_finish == Tick::ZERO {
            return 0.0;
        }
        self.completion.count() as f64 / self.last_finish.as_ticks() as f64
    }

    /// Completion-time quantile from the reservoir (`None` before any
    /// completion). Exact while the reservoir is exhaustive (see
    /// [`Reservoir::is_exhaustive`]); an estimate afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.reservoir.quantile(q)
    }

    /// The completion-time reservoir.
    pub fn reservoir(&self) -> &Reservoir {
        &self.reservoir
    }

    /// Folds another report's streams into this one — how a fleet
    /// merges per-backend streaming reports. The running aggregates
    /// combine exactly ([`RunningStat::merge`]); the percentile
    /// reservoir combines exactly while the union is within capacity
    /// and degrades to a deterministic estimate beyond
    /// ([`Reservoir::merge`]); rejection counts sum and the last
    /// completion tick takes the maximum.
    pub fn merge(&mut self, other: &OnlineReport) {
        self.completion.merge(&other.completion);
        self.queueing.merge(&other.queueing);
        self.epr_wait.merge(&other.epr_wait);
        self.compute.merge(&other.compute);
        self.reservoir.merge(&other.reservoir);
        self.rejected += other.rejected;
        self.last_finish = self.last_finish.max(other.last_finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Summary;

    #[test]
    fn running_stat_matches_batch_formulas() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = RunningStat::default();
        for &x in &samples {
            s.record(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        assert_eq!(s.count(), samples.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stat_is_zeroed() {
        let s = RunningStat::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn exhaustive_reservoir_quantiles_match_summary() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let mut r = Reservoir::new(100, 3);
        for &x in &samples {
            r.record(x);
        }
        assert!(r.is_exhaustive());
        let s = Summary::of(&samples).unwrap();
        assert_eq!(r.quantile(0.5), Some(s.p50));
        assert_eq!(r.quantile(0.95), Some(s.p95));
        assert_eq!(r.quantile(1.0), Some(s.max));
    }

    #[test]
    fn overflowing_reservoir_stays_bounded_and_in_range() {
        let mut r = Reservoir::new(32, 9);
        for i in 0..10_000 {
            r.record(i as f64);
        }
        assert_eq!(r.len(), 32);
        assert_eq!(r.seen(), 10_000);
        assert!(!r.is_exhaustive());
        let p50 = r.quantile(0.5).unwrap();
        assert!((0.0..10_000.0).contains(&p50));
        // A uniform ramp's sampled median should land well inside the
        // middle half with 32 samples (loose, deterministic bound).
        assert!((1_000.0..9_000.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn quantile_cache_invalidates_on_insert() {
        // A read after an insert sees it, and a repeated read agrees.
        let mut r = Reservoir::new(8, 4);
        r.record(10.0);
        assert_eq!(r.quantile(1.0), Some(10.0));
        r.record(20.0);
        assert_eq!(r.quantile(1.0), Some(20.0));
        assert_eq!(r.quantile(0.0), Some(10.0));
        assert_eq!(r.quantile(1.0), Some(20.0));
    }

    #[test]
    fn reservoir_equality_ignores_sorted_cache() {
        // A quantile read leaves no trace that equality could see.
        let mut a = Reservoir::new(8, 4);
        let mut b = Reservoir::new(8, 4);
        for x in [3.0, 1.0, 2.0] {
            a.record(x);
            b.record(x);
        }
        let _ = a.quantile(0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn reservoir_is_deterministic_per_seed() {
        let fill = |seed| {
            let mut r = Reservoir::new(16, seed);
            for i in 0..1_000 {
                r.record(i as f64);
            }
            r.quantile(0.5)
        };
        assert_eq!(fill(5), fill(5));
        assert_ne!(fill(5), fill(6));
    }

    #[test]
    fn online_report_aggregates_and_throughput() {
        let mut r = OnlineReport::new(1);
        r.record_completion(
            Tick::new(100),
            LatencyBreakdown::new(50, 20, 30),
            Tick::new(400),
        );
        r.record_completion(
            Tick::new(300),
            LatencyBreakdown::new(100, 80, 120),
            Tick::new(200),
        );
        let mean = r.mean_breakdown().unwrap();
        assert_eq!(mean.queueing, 75.0);
        assert_eq!(mean.epr_wait, 50.0);
        assert_eq!(mean.compute, 75.0);
        assert_eq!(r.max_completion_time(), 300.0);
        // last_finish is a running max, not the last call's value.
        assert_eq!(r.last_finish(), Tick::new(400));
        assert!((r.throughput_per_tick() - 2.0 / 400.0).abs() < 1e-15);
        assert_eq!(r.quantile(0.5), Some(100.0));
    }

    #[test]
    fn empty_report() {
        let r = OnlineReport::new(0);
        assert_eq!(r.completed(), 0);
        assert_eq!(r.mean_completion_time(), 0.0);
        assert_eq!(r.mean_breakdown(), None);
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.throughput_per_tick(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reservoir_capacity_rejected() {
        Reservoir::new(0, 1);
    }

    #[test]
    fn running_stat_merge_equals_one_stream() {
        let (a_samples, b_samples) = ([3.0, 1.0, 4.0, 1.0], [5.0, 9.0, 2.0, 6.0, 5.0]);
        let mut a = RunningStat::default();
        let mut b = RunningStat::default();
        let mut whole = RunningStat::default();
        for &x in &a_samples {
            a.record(x);
            whole.record(x);
        }
        for &x in &b_samples {
            b.record(x);
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into an empty stat adopts the other side verbatim.
        let mut empty = RunningStat::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        // Merging an empty stat is a no-op.
        let snapshot = whole.clone();
        whole.merge(&RunningStat::default());
        assert_eq!(whole, snapshot);
    }

    #[test]
    fn exhaustive_reservoir_merge_is_the_exact_union() {
        let mut a = Reservoir::new(16, 3);
        let mut b = Reservoir::new(16, 4);
        for x in [1.0, 5.0, 9.0] {
            a.record(x);
        }
        for x in [2.0, 4.0] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.seen(), 5);
        assert!(a.is_exhaustive());
        assert_eq!(a.quantile(0.0), Some(1.0));
        assert_eq!(a.quantile(1.0), Some(9.0));
    }

    #[test]
    fn overflowing_reservoir_merge_stays_bounded_and_deterministic() {
        let fill = |seed, lo: u64, hi: u64| {
            let mut r = Reservoir::new(32, seed);
            for i in lo..hi {
                r.record(i as f64);
            }
            r
        };
        let merged = |seed| {
            let mut a = fill(seed, 0, 500);
            a.merge(&fill(seed + 1, 500, 1_000));
            a
        };
        let m = merged(7);
        assert_eq!(m.len(), 32);
        assert_eq!(m.seen(), 1_000, "seen sums the full combined stream");
        assert!(!m.is_exhaustive());
        let p50 = m.quantile(0.5).unwrap();
        assert!((0.0..1_000.0).contains(&p50));
        assert_eq!(merged(7).quantile(0.5), merged(7).quantile(0.5));
    }

    #[test]
    fn online_report_merge_combines_streams() {
        let mut a = OnlineReport::new(1);
        let mut b = OnlineReport::new(2);
        a.record_completion(
            Tick::new(100),
            LatencyBreakdown::new(50, 20, 30),
            Tick::new(400),
        );
        b.record_completion(
            Tick::new(300),
            LatencyBreakdown::new(100, 80, 120),
            Tick::new(900),
        );
        b.record_rejection();
        a.merge(&b);
        assert_eq!(a.completed(), 2);
        assert_eq!(a.rejected(), 1);
        assert!((a.mean_completion_time() - 200.0).abs() < 1e-12);
        let mean = a.mean_breakdown().unwrap();
        assert_eq!(mean.queueing, 75.0);
        assert_eq!(a.last_finish(), Tick::new(900));
        assert_eq!(a.quantile(1.0), Some(300.0));
    }
}
