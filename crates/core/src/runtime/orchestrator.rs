//! The one-shot runtime entry point: one finite workload through the
//! unified orchestration loop.
//!
//! The [`Orchestrator`] holds the runtime *configuration* — admission
//! policy, cache knobs, executor options, seed — and [`Orchestrator::run`]
//! executes one workload to completion as a single epoch of the
//! resident [`crate::runtime::Service`] (which owns the actual event
//! loop; the orchestrator is the thin wrapper kept for finite-trace
//! experiments). Batch mode (§VI.D) and the incoming-job mode (§V.B)
//! are the same loop with different workloads; `run_multi_tenant` /
//! `run_incoming` in [`crate::tenant`] are thin wrappers kept for the
//! experiment binaries. Long-lived processes should hold a
//! [`crate::runtime::Service`] instead ([`Orchestrator::into_service`])
//! to keep the placement cache warm across epochs and stream metrics
//! instead of retaining every outcome.
//!
//! Jobs whose placement can never execute (a remote gate over a QPU
//! with no communication qubits), or whose SLA expired under
//! deadline-aware admission, are *rejected* — reported in
//! [`RunReport::rejected`] — instead of aborting the run.

use crate::error::{ExecError, PlacementError};
use crate::exec::AllocStats;
use crate::placement::{CacheStats, PlacementAlgorithm};
use crate::runtime::service::{RuntimeConfig, Service};
use crate::runtime::{AdmissionPolicy, LoadShedPolicy, ServiceBuilder};
use crate::schedule::Scheduler;
use crate::workload::Workload;
use cloudqc_cloud::Cloud;
use cloudqc_sim::series::{BatchStats, LatencyBreakdown, MeanBreakdown, TimeSeries};
use cloudqc_sim::Tick;

/// Per-job outcome of a runtime run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Index of the job in the workload.
    pub job: usize,
    /// When the job arrived.
    pub arrived_at: Tick,
    /// When the job was admitted (placement succeeded).
    pub admitted_at: Tick,
    /// When the job finished.
    pub finished_at: Tick,
    /// Completion time from arrival (includes queueing delay).
    pub completion_time: Tick,
    /// Remote gates induced by the chosen placement.
    pub remote_gates: usize,
    /// EPR generation rounds spent across all remote gates.
    pub epr_rounds: u64,
    /// Computing qubits the job occupied while running.
    pub qubits: usize,
    /// Where the completion time went: queueing vs. EPR wait vs.
    /// compute.
    pub breakdown: LatencyBreakdown,
}

/// Result of one workload run through the runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// One record per completed job, in workload order (rejected jobs
    /// are absent).
    pub outcomes: Vec<JobRecord>,
    /// Jobs whose placement could never execute, with the reason.
    pub rejected: Vec<(usize, ExecError)>,
    /// Time the last job finished.
    pub makespan: Tick,
    /// Free computing qubits per QPU after the run (resource
    /// conservation: equals capacity when every job released).
    pub final_free_computing: Vec<usize>,
    /// Free communication qubits per QPU after the run.
    pub final_free_communication: Vec<usize>,
    /// Placement-cache hit/miss counters (all zero when the cache is
    /// disabled).
    pub placement_cache: CacheStats,
    /// Distribution of same-tick event batch sizes the executor
    /// processed.
    pub event_batches: BatchStats,
    /// Allocation-pass work counters: scheduler rounds run, front-layer
    /// shards visited, requests scanned (see [`AllocStats`]).
    pub allocation: AllocStats,
}

impl RunReport {
    /// Completion times (from each job's arrival), in workload order.
    pub fn completion_times(&self) -> Vec<Tick> {
        self.outcomes.iter().map(|o| o.completion_time).collect()
    }

    /// Mean job completion time in ticks (0 for an empty run).
    pub fn mean_completion_time(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks() as f64)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Component-wise mean latency breakdown (`None` for an empty run).
    pub fn mean_breakdown(&self) -> Option<MeanBreakdown> {
        let all: Vec<LatencyBreakdown> = self.outcomes.iter().map(|o| o.breakdown).collect();
        LatencyBreakdown::mean_of(&all)
    }

    /// Computing-qubit utilization over the run: qubit-ticks actually
    /// held by jobs divided by capacity × makespan (the paper's Eq. 2
    /// resource-efficiency view). `0.0` for an empty run.
    ///
    /// # Panics
    ///
    /// Panics if `total_computing_capacity == 0`.
    pub fn utilization(&self, total_computing_capacity: usize) -> f64 {
        assert!(total_computing_capacity > 0, "capacity must be positive");
        if self.outcomes.is_empty() || self.makespan == Tick::ZERO {
            return 0.0;
        }
        let held: f64 = self
            .outcomes
            .iter()
            .map(|o| o.qubits as f64 * (o.finished_at - o.admitted_at) as f64)
            .sum();
        held / (total_computing_capacity as f64 * self.makespan.as_ticks() as f64)
    }

    /// Completed jobs per bucket of `bucket_width` ticks (a throughput
    /// curve over the run).
    pub fn throughput(&self, bucket_width: u64) -> TimeSeries {
        let mut ts = TimeSeries::new(bucket_width);
        for o in &self.outcomes {
            ts.add(o.finished_at, 1.0);
        }
        ts
    }

    /// Computing-qubit utilization per bucket of `bucket_width` ticks,
    /// as a fraction of `total_computing_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `total_computing_capacity == 0`.
    pub fn utilization_series(
        &self,
        total_computing_capacity: usize,
        bucket_width: u64,
    ) -> TimeSeries {
        assert!(total_computing_capacity > 0, "capacity must be positive");
        let mut ts = TimeSeries::new(bucket_width);
        for o in &self.outcomes {
            ts.add_interval(o.admitted_at, o.finished_at, o.qubits as f64);
        }
        ts.scaled(1.0 / (total_computing_capacity as f64 * bucket_width as f64))
    }
}

/// The unified cloud runtime: admission + placement + shared execution
/// over one workload.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::CloudQcPlacement;
/// use cloudqc_core::runtime::{AdmissionPolicy, Orchestrator};
/// use cloudqc_core::schedule::CloudQcScheduler;
/// use cloudqc_core::workload::Workload;
///
/// let cloud = CloudBuilder::paper_default(1).build();
/// let placement = CloudQcPlacement::default();
/// let pool = vec![
///     catalog::by_name("vqe_n4").unwrap(),
///     catalog::by_name("qft_n29").unwrap(),
/// ];
/// let workload = Workload::poisson(&pool, 4, 10_000.0, 7);
/// let report = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 7)
///     .with_admission(AdmissionPolicy::Backfill)
///     .run(&workload)
///     .unwrap();
/// assert_eq!(report.outcomes.len(), 4);
/// ```
pub struct Orchestrator<'a> {
    cfg: RuntimeConfig<'a>,
}

impl<'a> Orchestrator<'a> {
    /// A runtime over one cloud, placement algorithm and network
    /// scheduler, with the default (priority-aware backfill) admission.
    ///
    /// New code should prefer the builder directly:
    /// [`ServiceBuilder::new`] carries the same defaults and reaches
    /// both faces ([`ServiceBuilder::build`] for a resident service,
    /// [`ServiceBuilder::build_orchestrator`] for this one-shot
    /// wrapper). The `with_*` methods below survive as thin delegating
    /// wrappers for existing call sites.
    pub fn new(
        cloud: &'a Cloud,
        placement: &'a dyn PlacementAlgorithm,
        scheduler: &'a dyn Scheduler,
        seed: u64,
    ) -> Self {
        ServiceBuilder::new(cloud, placement, scheduler, seed).build_orchestrator()
    }

    pub(crate) fn from_config(cfg: RuntimeConfig<'a>) -> Self {
        Orchestrator { cfg }
    }

    fn rebuild(self, f: impl FnOnce(ServiceBuilder<'a>) -> ServiceBuilder<'a>) -> Self {
        f(ServiceBuilder::from_config(self.cfg)).build_orchestrator()
    }

    /// Legacy wrapper for [`ServiceBuilder::admission`].
    #[doc(hidden)]
    pub fn with_admission(self, admission: AdmissionPolicy) -> Self {
        self.rebuild(|b| b.admission(admission))
    }

    /// Legacy wrapper for [`ServiceBuilder::path_reservation`].
    #[doc(hidden)]
    pub fn with_path_reservation(self, enabled: bool) -> Self {
        self.rebuild(|b| b.path_reservation(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::placement_cache`].
    #[doc(hidden)]
    pub fn with_placement_cache(self, enabled: bool) -> Self {
        self.rebuild(|b| b.placement_cache(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::cache_quantum`].
    #[doc(hidden)]
    pub fn with_cache_quantum(self, quantum: usize) -> Self {
        self.rebuild(|b| b.cache_quantum(quantum))
    }

    /// Legacy wrapper for [`ServiceBuilder::cache_capacity`].
    #[doc(hidden)]
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.rebuild(|b| b.cache_capacity(capacity))
    }

    /// Legacy wrapper for [`ServiceBuilder::batched_allocation`].
    #[doc(hidden)]
    pub fn with_batched_allocation(self, enabled: bool) -> Self {
        self.rebuild(|b| b.batched_allocation(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::sharded_front_layer`].
    #[doc(hidden)]
    pub fn with_sharded_front_layer(self, enabled: bool) -> Self {
        self.rebuild(|b| b.sharded_front_layer(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::fingerprint_seeding`].
    #[doc(hidden)]
    pub fn with_fingerprint_seeding(self, enabled: bool) -> Self {
        self.rebuild(|b| b.fingerprint_seeding(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::preemption`].
    #[doc(hidden)]
    pub fn with_preemption(self, enabled: bool) -> Self {
        self.rebuild(|b| b.preemption(enabled))
    }

    /// Legacy wrapper for [`ServiceBuilder::aging_rate`].
    #[doc(hidden)]
    pub fn with_aging_rate(self, rate: f64) -> Self {
        self.rebuild(|b| b.aging_rate(rate))
    }

    /// Legacy wrapper for [`ServiceBuilder::load_shedding`].
    #[doc(hidden)]
    pub fn with_load_shedding(self, policy: LoadShedPolicy) -> Self {
        self.rebuild(|b| b.load_shedding(policy))
    }

    /// Legacy wrapper for [`ServiceBuilder::placement_repair`].
    #[doc(hidden)]
    pub fn with_placement_repair(self, enabled: bool) -> Self {
        self.rebuild(|b| b.placement_repair(enabled))
    }

    /// Turns this configuration into a resident [`Service`]: the same
    /// event loop, but with a placement cache that stays warm across
    /// epochs and streaming metrics instead of retained outcomes. Every
    /// knob set on the orchestrator carries over.
    pub fn into_service(self) -> Service<'a> {
        Service::from_config(self.cfg)
    }

    /// Runs the workload to completion — a thin wrapper that drives one
    /// epoch of a fresh [`Service`], so a finite trace and a service
    /// epoch are by construction the same computation.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if some job can never be placed even on an
    /// idle cloud (it would otherwise wait forever). Jobs whose
    /// *placement* succeeds but can never *execute* (communication
    /// starvation) are rejected, not errors.
    pub fn run(&self, workload: &Workload) -> Result<RunReport, PlacementError> {
        let mut service = Service::from_config(self.cfg);
        service.submit_workload(workload);
        service.drive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::schedule::CloudQcScheduler;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn pool() -> Vec<cloudqc_circuit::Circuit> {
        vec![
            catalog::by_name("qugan_n39").unwrap(),
            catalog::by_name("qft_n29").unwrap(),
            catalog::by_name("ghz_n40").unwrap(),
        ]
    }

    #[test]
    fn batch_and_open_arrival_share_the_loop() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let orch = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 3);
        let batch = orch.run(&Workload::batch(pool())).unwrap();
        assert_eq!(batch.outcomes.len(), 3);
        assert!(batch.rejected.is_empty());
        let open = orch
            .run(&Workload::poisson(&pool(), 3, 5_000.0, 3))
            .unwrap();
        assert_eq!(open.outcomes.len(), 3);
        for o in &open.outcomes {
            assert!(o.admitted_at >= o.arrived_at);
            assert_eq!(
                o.breakdown.total(),
                o.completion_time.as_ticks(),
                "breakdown decomposes the completion time"
            );
        }
    }

    #[test]
    fn resources_are_conserved() {
        let cloud = CloudBuilder::paper_default(5).build();
        let placement = CloudQcPlacement::default();
        let report = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 9)
            .run(&Workload::batch(pool()))
            .unwrap();
        for i in 0..cloud.qpu_count() {
            let qpu = cloud.qpu(cloudqc_cloud::QpuId::new(i));
            assert_eq!(report.final_free_computing[i], qpu.computing_qubits());
            assert_eq!(
                report.final_free_communication[i],
                qpu.communication_qubits()
            );
        }
    }

    #[test]
    fn fcfs_blocks_backfill_admits() {
        // A big head job that cannot fit while a small one could.
        let cloud = CloudBuilder::new(3)
            .computing_qubits(10)
            .line_topology()
            .build();
        let jobs = vec![
            catalog::by_name("ghz_n25").unwrap(), // fits alone
            catalog::by_name("ghz_n25").unwrap(), // must wait
            catalog::by_name("vqe_n4").unwrap(),  // could backfill
        ];
        let placement = CloudQcPlacement::default();
        let fcfs = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 1)
            .with_admission(AdmissionPolicy::Fcfs)
            .run(&Workload::batch(jobs.clone()))
            .unwrap();
        let backfill = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 1)
            .with_admission(AdmissionPolicy::Backfill)
            .run(&Workload::batch(jobs))
            .unwrap();
        // Under FCFS the tiny job waits behind the second big one.
        assert!(fcfs.outcomes[2].admitted_at >= fcfs.outcomes[1].admitted_at);
        // With backfill it starts immediately.
        assert_eq!(backfill.outcomes[2].admitted_at, Tick::ZERO);
    }

    #[test]
    fn communication_starved_jobs_are_rejected_not_fatal() {
        // QPUs with zero communication qubits: any distributed job is
        // impossible, but single-QPU jobs still run.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(20)
            .communication_qubits(0)
            .line_topology()
            .build();
        let jobs = vec![
            catalog::by_name("vqe_n4").unwrap(),  // fits one QPU
            catalog::by_name("ghz_n30").unwrap(), // must span both
            catalog::by_name("qft_n13").unwrap(), // fits one QPU
        ];
        let placement = CloudQcPlacement::default();
        let report = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 5)
            .run(&Workload::batch(jobs))
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.rejected.len(), 1);
        let (job, err) = &report.rejected[0];
        assert_eq!(*job, 1);
        assert!(matches!(err, ExecError::NoCommQubits { .. }));
        // The completed jobs are the single-QPU ones.
        let done: Vec<usize> = report.outcomes.iter().map(|o| o.job).collect();
        assert_eq!(done, vec![0, 2]);
    }

    #[test]
    fn report_series_are_consistent() {
        let cloud = CloudBuilder::paper_default(8).build();
        let placement = CloudQcPlacement::default();
        let report = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 11)
            .run(&Workload::poisson(&pool(), 6, 2_000.0, 11))
            .unwrap();
        let tp = report.throughput(1_000);
        assert_eq!(
            tp.buckets().iter().sum::<f64>() as usize,
            report.outcomes.len(),
            "every completion lands in some bucket"
        );
        let util = report.utilization_series(cloud.total_computing_capacity(), 1_000);
        assert!(util
            .buckets()
            .iter()
            .all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
        let mean = report.mean_breakdown().unwrap();
        assert!(mean.total() > 0.0);
        assert!((report.mean_completion_time() - mean.total()).abs() < 1e-6);
    }

    #[test]
    fn gate_less_circuits_are_recorded_and_release_resources() {
        // A gate-less circuit finishes inside try_add_job, before the
        // executor ever steps; the orchestrator must still record it
        // and release its computing qubits — including when it is the
        // only (or last) job of the run.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(8)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        for workload in [
            Workload::batch(vec![cloudqc_circuit::Circuit::new(3)]),
            Workload::trace(vec![
                (catalog::by_name("vqe_n4").unwrap(), Tick::ZERO),
                (cloudqc_circuit::Circuit::new(3), Tick::new(50_000)),
            ]),
        ] {
            let report = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 1)
                .run(&workload)
                .unwrap();
            assert_eq!(report.outcomes.len(), workload.len());
            let empty = report.outcomes.last().unwrap();
            assert_eq!(empty.finished_at, empty.admitted_at);
            assert_eq!(report.final_free_computing, vec![8, 8]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cloud = CloudBuilder::paper_default(13).build();
        let placement = CloudQcPlacement::default();
        let w = Workload::bursty(&pool(), 2, 2, 8_000.0, 5);
        let run = |seed| {
            Orchestrator::new(&cloud, &placement, &CloudQcScheduler, seed)
                .run(&w)
                .unwrap()
        };
        assert_eq!(run(7), run(7));
    }
}
