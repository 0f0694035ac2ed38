//! The per-run report of the unified runtime: one [`RunReport`] of
//! [`JobRecord`]s per finite workload or service epoch.
//!
//! [`crate::runtime::ServiceBuilder::run`] executes one workload to
//! completion as a single epoch of a fresh [`crate::runtime::Service`],
//! and [`crate::runtime::Service::drive`] reports each epoch of a
//! resident one; both return a [`RunReport`]. Batch mode (§VI.D) and
//! the incoming-job mode (§V.B) are the same loop with different
//! workloads. Job completion time (the metric of Figs. 14–17) is
//! measured from each job's arrival, so it includes queueing delay.
//!
//! Jobs that can never be placed even on an idle cloud, jobs whose
//! placement can never execute (a remote gate over a QPU with no
//! communication qubits), and jobs whose SLA expired under
//! deadline-aware admission are *rejected* — reported in
//! [`RunReport::rejected`] — instead of aborting the run.

use crate::error::ExecError;
use crate::exec::AllocStats;
use crate::placement::CacheStats;
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
    /// Rejected jobs, with the typed reason.
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
    /// Allocation-pass work counters: scheduler rounds run and
    /// requests scanned (see [`AllocStats`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::runtime::{AdmissionPolicy, ServiceBuilder};
    use crate::schedule::CloudQcScheduler;
    use crate::workload::Workload;
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
        let builder = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3);
        let batch = builder.run(&Workload::batch(pool())).unwrap();
        assert_eq!(batch.outcomes.len(), 3);
        assert!(batch.rejected.is_empty());
        let workload = Workload::poisson(&pool(), 3, 5_000.0, 3);
        let open = builder.run(&workload).unwrap();
        assert_eq!(open.outcomes.len(), 3);
        for o in &open.outcomes {
            assert_eq!(o.arrived_at, workload.jobs()[o.job].arrival);
            assert!(o.admitted_at >= o.arrived_at);
            assert_eq!(
                o.completion_time.as_ticks(),
                o.finished_at - o.arrived_at,
                "completion time runs from the job's own arrival"
            );
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
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 9)
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
        let fcfs = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
            .admission(AdmissionPolicy::Fcfs)
            .run(&Workload::batch(jobs.clone()))
            .unwrap();
        let backfill = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
            .admission(AdmissionPolicy::Backfill)
            .run(&Workload::batch(jobs))
            .unwrap();
        // Under FCFS the tiny job waits behind the second big one.
        assert!(fcfs.outcomes[2].admitted_at >= fcfs.outcomes[1].admitted_at);
        // With backfill it starts immediately.
        assert_eq!(backfill.outcomes[2].admitted_at, Tick::ZERO);
        // The two big jobs never fit together: the second queues until
        // the first releases its qubits.
        assert_eq!(backfill.outcomes[0].admitted_at, Tick::ZERO);
        assert!(backfill.outcomes[1].admitted_at >= backfill.outcomes[0].finished_at);
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
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5)
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
        let workload = Workload::poisson(&pool(), 6, 2_000.0, 11);
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 11)
            .run(&workload)
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
        let u = report.utilization(cloud.total_computing_capacity());
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        for o in &report.outcomes {
            assert_eq!(o.qubits, workload.jobs()[o.job].circuit.num_qubits());
        }
        let mean = report.mean_breakdown().unwrap();
        assert!(mean.total() > 0.0);
        assert!((report.mean_completion_time() - mean.total()).abs() < 1e-6);
    }

    #[test]
    fn gate_less_circuits_are_recorded_and_release_resources() {
        // A gate-less circuit finishes inside try_add_job, before the
        // executor ever steps; the runtime must still record it and
        // release its computing qubits — including when it is the only
        // (or last) job of the run.
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
            let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
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
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .run(&w)
                .unwrap()
        };
        assert_eq!(run(7), run(7));
    }
}
