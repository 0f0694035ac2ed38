//! Seed-deterministic workload generators for the runtime layer.
//!
//! A [`Workload`] is a list of circuits with arrival times — the input
//! of a one-shot [`crate::runtime::ServiceBuilder::run`] and of the
//! resident [`crate::runtime::Service`]. Generators cover the paper's batch mode
//! (§VI.D: everything arrives at `t = 0`), the open-arrival incoming
//! mode (§V.B: Poisson arrivals), bursty traffic, replay of explicit
//! traces, *diurnal* traffic (a sinusoidally rate-modulated Poisson
//! process, the day/night curve a long-lived service faces), and
//! heavy-tailed ([`Workload::pareto_sizes`]) job-size streams. All
//! stochastic generators draw from forked [`SimRng`] streams, so the
//! same seed always produces the same workload.
//!
//! Jobs additionally carry multi-tenancy metadata for the admission
//! policies: a tenant id and fair-share weight
//! ([`Workload::assign_round_robin_tenants`]) and an optional absolute
//! SLA deadline ([`Workload::with_uniform_sla`]), consumed by the
//! weighted-fair-share and deadline-aware policies respectively.

use cloudqc_circuit::Circuit;
use cloudqc_sim::{SimRng, Tick};
use rand::RngExt;

/// One job of a workload: a circuit, its arrival time, and the
/// multi-tenancy metadata the admission policies consume.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadJob {
    /// The circuit to place and execute.
    pub circuit: Circuit,
    /// When the job arrives at the cloud.
    pub arrival: Tick,
    /// The submitting tenant (0 when the workload is single-tenant).
    pub tenant: usize,
    /// The tenant's fair-share weight (1.0 by default); consumed by
    /// [`crate::runtime::AdmissionPolicy::WeightedFairShare`].
    pub weight: f64,
    /// Absolute SLA deadline (arrival + SLA budget), if any; consumed
    /// by [`crate::runtime::AdmissionPolicy::DeadlineAware`].
    pub deadline: Option<Tick>,
}

impl WorkloadJob {
    /// A single-tenant, weight-1, deadline-free job — the default
    /// metadata every generator starts from.
    pub fn new(circuit: Circuit, arrival: Tick) -> Self {
        WorkloadJob {
            circuit,
            arrival,
            tenant: 0,
            weight: 1.0,
            deadline: None,
        }
    }
}

/// A set of jobs with arrival times, in submission order.
///
/// Job indices into the workload are stable: the runtime reports
/// outcomes under the same indices.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    jobs: Vec<WorkloadJob>,
}

impl Workload {
    /// Batch mode: every circuit arrives at `t = 0` (paper §VI.D).
    pub fn batch(circuits: impl IntoIterator<Item = Circuit>) -> Self {
        Workload {
            jobs: circuits
                .into_iter()
                .map(|circuit| WorkloadJob::new(circuit, Tick::ZERO))
                .collect(),
        }
    }

    /// Replays an explicit trace of `(circuit, arrival)` pairs, e.g.
    /// recorded from a production queue. Any order; the runtime sorts by
    /// arrival internally.
    pub fn trace(jobs: impl IntoIterator<Item = (Circuit, Tick)>) -> Self {
        Workload {
            jobs: jobs
                .into_iter()
                .map(|(circuit, arrival)| WorkloadJob::new(circuit, arrival))
                .collect(),
        }
    }

    /// Open arrivals: `n` jobs drawn round-robin from `pool`, with
    /// exponentially distributed inter-arrival gaps of mean
    /// `mean_interarrival` ticks — a Poisson arrival process
    /// (deterministic per seed).
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty (with `n > 0`) or the mean is not
    /// positive and finite.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_circuit::generators::catalog;
    /// use cloudqc_core::workload::Workload;
    ///
    /// let pool = vec![catalog::by_name("vqe_n4").unwrap()];
    /// let w = Workload::poisson(&pool, 5, 1_000.0, 7);
    /// assert_eq!(w.len(), 5);
    /// assert_eq!(w, Workload::poisson(&pool, 5, 1_000.0, 7));
    /// ```
    pub fn poisson(pool: &[Circuit], n: usize, mean_interarrival: f64, seed: u64) -> Self {
        let arrivals = poisson_arrivals(n, mean_interarrival, seed);
        assert!(n == 0 || !pool.is_empty(), "circuit pool must be non-empty");
        Workload {
            jobs: arrivals
                .into_iter()
                .enumerate()
                .map(|(i, arrival)| WorkloadJob::new(pool[i % pool.len()].clone(), arrival))
                .collect(),
        }
    }

    /// Bursty traffic: `bursts` waves of `jobs_per_burst` simultaneous
    /// arrivals (circuits drawn round-robin from `pool`), with
    /// exponentially distributed gaps of mean `mean_burst_gap` ticks
    /// between waves — the flash-crowd pattern batch admission must
    /// absorb. Deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty (with work requested) or the gap mean
    /// is not positive and finite.
    pub fn bursty(
        pool: &[Circuit],
        bursts: usize,
        jobs_per_burst: usize,
        mean_burst_gap: f64,
        seed: u64,
    ) -> Self {
        assert!(
            bursts * jobs_per_burst == 0 || !pool.is_empty(),
            "circuit pool must be non-empty"
        );
        assert!(
            mean_burst_gap.is_finite() && mean_burst_gap > 0.0,
            "mean burst gap must be positive"
        );
        let mut rng = SimRng::new(seed).fork("bursts").into_std();
        let mut t = 0.0f64;
        let mut jobs = Vec::with_capacity(bursts * jobs_per_burst);
        for burst in 0..bursts {
            if burst > 0 {
                let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                t += -mean_burst_gap * u.ln();
            }
            for j in 0..jobs_per_burst {
                let i = burst * jobs_per_burst + j;
                jobs.push(WorkloadJob::new(
                    pool[i % pool.len()].clone(),
                    Tick::new(t as u64),
                ));
            }
        }
        Workload { jobs }
    }

    /// Diurnal traffic: `n` jobs drawn round-robin from `pool`, arriving
    /// as a *non-homogeneous* Poisson process whose rate follows a
    /// day/night curve — `λ(t) = (1 + amplitude·sin(2πt/period)) /
    /// mean_interarrival`. `amplitude` in `[0, 1)` sets how deep the
    /// trough is relative to the mean rate (0 degenerates to
    /// [`Workload::poisson`]’s homogeneous process, statistically).
    /// Sampled by Lewis–Shedler thinning at the peak rate, so the
    /// stream is deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty (with `n > 0`), the mean is not
    /// positive and finite, `period == 0`, or `amplitude` is outside
    /// `[0, 1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_circuit::generators::catalog;
    /// use cloudqc_core::workload::Workload;
    ///
    /// let pool = vec![catalog::by_name("vqe_n4").unwrap()];
    /// let w = Workload::diurnal(&pool, 6, 1_000.0, 20_000, 0.8, 7);
    /// assert_eq!(w.len(), 6);
    /// assert_eq!(w, Workload::diurnal(&pool, 6, 1_000.0, 20_000, 0.8, 7));
    /// ```
    pub fn diurnal(
        pool: &[Circuit],
        n: usize,
        mean_interarrival: f64,
        period: u64,
        amplitude: f64,
        seed: u64,
    ) -> Self {
        assert!(n == 0 || !pool.is_empty(), "circuit pool must be non-empty");
        assert!(
            mean_interarrival.is_finite() && mean_interarrival > 0.0,
            "mean inter-arrival must be positive"
        );
        assert!(period > 0, "diurnal period must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        let mut rng = SimRng::new(seed).fork("diurnal").into_std();
        let peak_rate = (1.0 + amplitude) / mean_interarrival;
        let rate_at = |t: f64| {
            (1.0 + amplitude * (std::f64::consts::TAU * t / period as f64).sin())
                / mean_interarrival
        };
        let mut t = 0.0f64;
        let mut jobs = Vec::with_capacity(n);
        while jobs.len() < n {
            // Candidate from the homogeneous peak-rate process …
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / peak_rate;
            // … thinned to the instantaneous rate.
            let accept: f64 = rng.random_range(0.0..1.0);
            if accept < rate_at(t) / peak_rate {
                let i = jobs.len();
                jobs.push(WorkloadJob::new(
                    pool[i % pool.len()].clone(),
                    Tick::new(t as u64),
                ));
            }
        }
        Workload { jobs }
    }

    /// Heavy-tailed job sizes: `n` Poisson arrivals whose qubit counts
    /// are drawn from a Pareto(`alpha`, `min_qubits`) distribution
    /// clamped to `max_qubits`, each materialized by `build` (e.g.
    /// `cloudqc_circuit::generators::ghz`). Small `alpha` (≤ 2) yields
    /// the elephant-and-mice mix that stresses admission policies:
    /// mostly small jobs, a fat tail of huge ones. Deterministic per
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite, the size bounds
    /// are empty or inverted (`min_qubits == 0` or `max_qubits <
    /// min_qubits`), or the mean inter-arrival is not positive and
    /// finite.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_circuit::generators::ghz::ghz;
    /// use cloudqc_core::workload::Workload;
    ///
    /// let w = Workload::pareto_sizes(ghz, 8, 1.5, 4, 40, 1_000.0, 7);
    /// assert_eq!(w.len(), 8);
    /// assert!(w.jobs().iter().all(|j| (4..=40).contains(&j.circuit.num_qubits())));
    /// ```
    pub fn pareto_sizes(
        build: impl Fn(usize) -> Circuit,
        n: usize,
        alpha: f64,
        min_qubits: usize,
        max_qubits: usize,
        mean_interarrival: f64,
        seed: u64,
    ) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "Pareto shape must be positive"
        );
        assert!(
            min_qubits > 0 && max_qubits >= min_qubits,
            "size bounds must satisfy 0 < min <= max"
        );
        let mut rng = SimRng::new(seed).fork("pareto").into_std();
        let arrivals = poisson_arrivals(n, mean_interarrival, seed);
        let jobs = arrivals
            .into_iter()
            .map(|arrival| {
                // Inverse-transform Pareto: x = x_m / u^(1/α).
                let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let size = (min_qubits as f64 / u.powf(1.0 / alpha)) as usize;
                WorkloadJob::new(build(size.min(max_qubits)), arrival)
            })
            .collect();
        Workload { jobs }
    }

    /// Assigns tenants round-robin — job `i` belongs to tenant `i %
    /// weights.len()` with that tenant's fair-share weight — the
    /// simplest multi-tenant overlay for exercising
    /// [`crate::runtime::AdmissionPolicy::WeightedFairShare`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is not positive and
    /// finite.
    pub fn assign_round_robin_tenants(mut self, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "at least one tenant weight required");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "tenant weights must be positive"
        );
        for (i, job) in self.jobs.iter_mut().enumerate() {
            job.tenant = i % weights.len();
            job.weight = weights[job.tenant];
        }
        self
    }

    /// Gives every job the same SLA budget: its deadline becomes
    /// `arrival + sla_ticks`. Consumed by
    /// [`crate::runtime::AdmissionPolicy::DeadlineAware`], which rejects
    /// jobs that can no longer meet their deadline instead of letting
    /// them rot in the queue.
    pub fn with_uniform_sla(mut self, sla_ticks: u64) -> Self {
        for job in &mut self.jobs {
            job.deadline = Some(Tick::new(job.arrival.as_ticks() + sla_ticks));
        }
        self
    }

    /// Shifts every arrival (and any deadline) forward by `base`
    /// ticks. Useful for replaying a workload later on a continuous
    /// service clock: `w.offset_arrivals(svc.now().as_ticks())` lands
    /// the first job no earlier than the service's current time.
    pub fn offset_arrivals(mut self, base: u64) -> Self {
        for job in &mut self.jobs {
            job.arrival = Tick::new(job.arrival.as_ticks() + base);
            if let Some(d) = job.deadline {
                job.deadline = Some(Tick::new(d.as_ticks() + base));
            }
        }
        self
    }

    /// The jobs, in submission order.
    pub fn jobs(&self) -> &[WorkloadJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total computing-qubit demand across all jobs.
    pub fn total_qubits(&self) -> usize {
        self.jobs.iter().map(|j| j.circuit.num_qubits()).sum()
    }

    /// The latest arrival time (`Tick::ZERO` when empty).
    pub fn last_arrival(&self) -> Tick {
        self.jobs
            .iter()
            .map(|j| j.arrival)
            .max()
            .unwrap_or(Tick::ZERO)
    }
}

/// Samples `n` arrival times with exponentially distributed
/// inter-arrival gaps of the given mean (in ticks) — a Poisson arrival
/// process for incoming-job-mode experiments. Deterministic per seed.
///
/// # Panics
///
/// Panics if `mean_interarrival` is not positive and finite.
pub fn poisson_arrivals(n: usize, mean_interarrival: f64, seed: u64) -> Vec<Tick> {
    assert!(
        mean_interarrival.is_finite() && mean_interarrival > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut rng = SimRng::new(seed).fork("arrivals").into_std();
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-transform sampling of Exp(1/mean).
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            t += -mean_interarrival * u.ln();
            Tick::new(t as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_circuit::generators::catalog;

    fn pool() -> Vec<Circuit> {
        vec![
            catalog::by_name("vqe_n4").unwrap(),
            catalog::by_name("qft_n13").unwrap(),
        ]
    }

    #[test]
    fn batch_arrives_at_zero() {
        let w = Workload::batch(pool());
        assert_eq!(w.len(), 2);
        assert!(w.jobs().iter().all(|j| j.arrival == Tick::ZERO));
        assert_eq!(w.last_arrival(), Tick::ZERO);
        assert_eq!(w.total_qubits(), 4 + 13);
    }

    #[test]
    fn trace_replays_pairs() {
        let p = pool();
        let w = Workload::trace(vec![
            (p[0].clone(), Tick::new(500)),
            (p[1].clone(), Tick::new(100)),
        ]);
        assert_eq!(w.jobs()[0].arrival, Tick::new(500));
        assert_eq!(w.jobs()[1].arrival, Tick::new(100));
        assert_eq!(w.last_arrival(), Tick::new(500));
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let p = pool();
        let a = Workload::poisson(&p, 20, 300.0, 11);
        let b = Workload::poisson(&p, 20, 300.0, 11);
        assert_eq!(a, b);
        for pair in a.jobs().windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        // Round-robin circuit assignment.
        assert_eq!(a.jobs()[0].circuit.num_qubits(), 4);
        assert_eq!(a.jobs()[1].circuit.num_qubits(), 13);
        assert_eq!(a.jobs()[2].circuit.num_qubits(), 4);
        // Mean inter-arrival is roughly the requested mean.
        let arrivals = poisson_arrivals(50, 100.0, 9);
        let mean = arrivals.last().unwrap().as_ticks() as f64 / 50.0;
        assert!((mean - 100.0).abs() < 50.0, "mean gap {mean}");
    }

    #[test]
    fn poisson_jobs_share_their_pool_circuits_gates() {
        let p = pool();
        let w = Workload::poisson(&p, 6, 300.0, 11);
        for (i, job) in w.jobs().iter().enumerate() {
            assert_eq!(
                job.circuit.gates().as_ptr(),
                p[i % p.len()].gates().as_ptr()
            );
        }
    }

    #[test]
    fn poisson_matches_legacy_arrival_stream() {
        // Workload::poisson must replay the exact arrival process of
        // the standalone sampler, so experiments keep their numbers.
        let p = pool();
        let w = Workload::poisson(&p, 8, 1_000.0, 3);
        let direct = poisson_arrivals(8, 1_000.0, 3);
        let from_workload: Vec<Tick> = w.jobs().iter().map(|j| j.arrival).collect();
        assert_eq!(from_workload, direct);
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let p = pool();
        let w = Workload::bursty(&p, 3, 4, 5_000.0, 7);
        assert_eq!(w.len(), 12);
        // Jobs within one burst share an arrival instant.
        for burst in 0..3 {
            let t0 = w.jobs()[burst * 4].arrival;
            for j in 0..4 {
                assert_eq!(w.jobs()[burst * 4 + j].arrival, t0);
            }
        }
        // Bursts are strictly ordered (gap sampling can't collide for
        // this seed).
        assert!(w.jobs()[0].arrival < w.jobs()[4].arrival);
        assert!(w.jobs()[4].arrival < w.jobs()[8].arrival);
        assert_eq!(w, Workload::bursty(&p, 3, 4, 5_000.0, 7));
    }

    #[test]
    fn empty_workloads() {
        let w = Workload::batch(Vec::<Circuit>::new());
        assert!(w.is_empty());
        assert_eq!(Workload::poisson(&[], 0, 100.0, 0).len(), 0);
        assert_eq!(Workload::bursty(&[], 0, 5, 100.0, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "pool must be non-empty")]
    fn poisson_rejects_empty_pool() {
        Workload::poisson(&[], 3, 100.0, 0);
    }

    #[test]
    fn generators_default_to_single_tenant_no_sla() {
        let w = Workload::poisson(&pool(), 4, 500.0, 3);
        for j in w.jobs() {
            assert_eq!(j.tenant, 0);
            assert_eq!(j.weight, 1.0);
            assert_eq!(j.deadline, None);
        }
    }

    #[test]
    fn diurnal_is_deterministic_sorted_and_modulated() {
        let p = pool();
        let period = 10_000u64;
        let a = Workload::diurnal(&p, 200, 200.0, period, 0.9, 11);
        assert_eq!(a, Workload::diurnal(&p, 200, 200.0, period, 0.9, 11));
        assert_eq!(a.len(), 200);
        for pair in a.jobs().windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        // The first half-period (rate above mean) must receive more
        // arrivals than the second (rate below mean) — the signature of
        // the day/night curve. Count over the first full period only.
        let (mut peak, mut trough) = (0usize, 0usize);
        for j in a.jobs() {
            let phase = j.arrival.as_ticks() % period;
            if j.arrival.as_ticks() < period {
                if phase < period / 2 {
                    peak += 1;
                } else {
                    trough += 1;
                }
            }
        }
        assert!(
            peak > trough,
            "diurnal peak ({peak}) should outdraw trough ({trough})"
        );
    }

    #[test]
    fn pareto_sizes_are_heavy_tailed_and_clamped() {
        use cloudqc_circuit::generators::ghz::ghz;
        let w = Workload::pareto_sizes(ghz, 400, 1.2, 4, 64, 100.0, 9);
        assert_eq!(w.len(), 400);
        let sizes: Vec<usize> = w.jobs().iter().map(|j| j.circuit.num_qubits()).collect();
        assert!(sizes.iter().all(|&s| (4..=64).contains(&s)));
        // Mostly mice …
        let small = sizes.iter().filter(|&&s| s < 12).count();
        assert!(small > sizes.len() / 2, "small {small}/{}", sizes.len());
        // … with at least one elephant at the clamp.
        assert!(sizes.contains(&64), "no clamped elephant");
        assert_eq!(w, Workload::pareto_sizes(ghz, 400, 1.2, 4, 64, 100.0, 9));
    }

    #[test]
    fn round_robin_tenants_and_uniform_sla() {
        let w = Workload::poisson(&pool(), 6, 300.0, 5)
            .assign_round_robin_tenants(&[3.0, 1.0])
            .with_uniform_sla(10_000);
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.tenant, i % 2);
            assert_eq!(j.weight, if i % 2 == 0 { 3.0 } else { 1.0 });
            assert_eq!(
                j.deadline,
                Some(Tick::new(j.arrival.as_ticks() + 10_000)),
                "job {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_full_amplitude() {
        Workload::diurnal(&pool(), 2, 100.0, 1_000, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "tenant weight")]
    fn empty_tenant_weights_rejected() {
        let _ = Workload::batch(pool()).assign_round_robin_tenants(&[]);
    }
}
