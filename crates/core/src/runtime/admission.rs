//! Admission policies: how the runtime orders, scans, and prunes the
//! waiting queue.
//!
//! The paper's batch manager (§V.B, Eq. 11) is the priority-aware
//! policy: the queue is kept sorted by the job metric `I_i` so dense,
//! wide, deep jobs are placed while the cloud still offers
//! well-connected QPU sets. FIFO-with-backfill is the CloudQC-FIFO
//! baseline; strict FCFS (head-of-line blocking) isolates the value of
//! backfilling itself. On top of those seed policies the service layer
//! adds three classic cloud-scheduling disciplines over the same seam:
//!
//! * [`AdmissionPolicy::ShortestJobFirst`] — the queue is sorted by
//!   each job's *estimated* service time (the all-local weighted
//!   critical path, see [`crate::placement::estimate`]), shortest
//!   first: the mean-JCT-optimal discipline when estimates are honest.
//! * [`AdmissionPolicy::WeightedFairShare`] — weighted fair queueing
//!   across tenants: jobs are ordered by WFQ virtual finish times
//!   (`F_i = max(arrival_i, F_prev(tenant)) + est_i / weight_i`), so a
//!   tenant's share of admission slots tracks its weight instead of its
//!   submission volume.
//! * [`AdmissionPolicy::DeadlineAware`] — earliest-deadline-first
//!   ordering with SLA admission control: a waiting job whose estimated
//!   completion has slipped past its deadline is *rejected*
//!   ([`crate::error::ExecError::SlaExpired`]) instead of occupying the
//!   queue, the service-mode contract for per-job SLAs. Jobs without a
//!   deadline sort last and are never rejected.

use crate::batch::job_metric;
use crate::config::BatchWeights;
use crate::placement::estimate::execution_time_floor;
use crate::workload::WorkloadJob;
use cloudqc_cloud::Cloud;
use cloudqc_sim::Tick;

/// How waiting jobs are ordered, admitted, and (for SLA policies)
/// pruned.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AdmissionPolicy {
    /// Strict first-come-first-served: jobs are tried in arrival order
    /// and the queue head blocks everything behind it until it fits.
    Fcfs,
    /// Arrival order with backfill: a job that does not fit waits, but
    /// later arrivals that do fit may be admitted past it (the
    /// CloudQC-FIFO baseline's semantics).
    Backfill,
    /// Priority-aware: the waiting queue is kept sorted by the batch
    /// metric `I_i` (Eq. 11, highest first, ties by arrival), with
    /// backfill. With a batch workload this reproduces the paper's
    /// batch-manager ordering exactly.
    PriorityBackfill(BatchWeights),
    /// Shortest estimated job first (with backfill): the queue is
    /// sorted by each job's estimated all-local service time,
    /// ascending. Minimizes mean JCT under honest estimates; long jobs
    /// can starve under sustained load.
    ShortestJobFirst,
    /// Weighted fair share across tenants (with backfill): the queue is
    /// sorted by WFQ virtual finish times computed from each job's
    /// estimated service time and its tenant's weight
    /// ([`crate::workload::WorkloadJob::weight`]), so admission
    /// bandwidth divides by weight, not by submission volume.
    WeightedFairShare,
    /// Earliest deadline first (with backfill) plus SLA admission
    /// control: a waiting job whose estimated completion can no longer
    /// meet its [`crate::workload::WorkloadJob::deadline`] is rejected
    /// with [`crate::error::ExecError::SlaExpired`]. Deadline-free jobs
    /// sort last and are never rejected.
    DeadlineAware,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::PriorityBackfill(BatchWeights::default())
    }
}

/// Everything the runtime loop needs from the policy: queue-ordering
/// metrics and the SLA terms for deadline admission control. The
/// service grows it one submission batch at a time
/// ([`AdmissionPolicy::extend`]) and starts it over at each re-anchor.
pub(crate) struct QueueContext {
    /// Per-job queue priority, higher first (`None` keeps pure arrival
    /// order).
    metrics: Option<Vec<f64>>,
    /// Per-job (absolute deadline, estimated service ticks), only under
    /// [`AdmissionPolicy::DeadlineAware`].
    sla: Option<Vec<(Option<Tick>, u64)>>,
    /// Per-tenant WFQ virtual finish times, carried across submission
    /// batches under [`AdmissionPolicy::WeightedFairShare`] (reset at a
    /// re-anchor).
    tenant_finish: Vec<f64>,
}

impl QueueContext {
    /// An empty context, ready for [`AdmissionPolicy::extend`].
    pub(crate) fn empty() -> Self {
        QueueContext {
            metrics: None,
            sla: None,
            tenant_finish: Vec::new(),
        }
    }

    /// The queue-ordering metrics (higher sorts earlier), if any.
    pub(crate) fn metrics(&self) -> Option<&[f64]> {
        self.metrics.as_deref()
    }
}

/// Admission-time load shedding for the continuous-clock service: a job
/// arriving while the waiting queue is at the depth cap is rejected
/// with [`crate::error::ExecError::LoadShed`] at the door instead of
/// joining (and deepening) the queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoadShedPolicy {
    /// Shed while at least this many jobs are already waiting.
    pub max_queue_depth: usize,
}

impl LoadShedPolicy {
    /// Shed arrivals while `limit` jobs are already waiting.
    pub fn queue_depth(limit: usize) -> Self {
        LoadShedPolicy {
            max_queue_depth: limit,
        }
    }

    /// Whether a job arriving now must be shed, given the current
    /// waiting-queue depth.
    pub(crate) fn should_shed(&self, queue_depth: usize) -> bool {
        queue_depth >= self.max_queue_depth
    }
}

/// Estimated service time of `circuit` in ticks, assuming an all-local
/// placement: the weighted critical path under the cloud's latency
/// model with every qubit on one QPU, which prices each two-qubit gate
/// at the CX latency ([`execution_time_floor`]). A deliberately
/// optimistic, cheap, placement-free estimate — the common numerator
/// for SJF, WFQ virtual time, and SLA feasibility.
pub(crate) fn estimated_service_ticks(circuit: &cloudqc_circuit::Circuit, cloud: &Cloud) -> u64 {
    execution_time_floor(circuit, cloud.latency()) as u64
}

impl AdmissionPolicy {
    /// Whether an unplaceable job blocks the jobs behind it.
    pub(crate) fn head_of_line_blocks(&self) -> bool {
        matches!(self, AdmissionPolicy::Fcfs)
    }

    /// Computes the queue context for `jobs` (in workload order) from
    /// scratch — one epoch's worth, the degenerate single-batch case of
    /// [`AdmissionPolicy::extend`].
    #[cfg(test)]
    pub(crate) fn prepare(&self, jobs: &[WorkloadJob], cloud: &Cloud) -> QueueContext {
        let mut ctx = QueueContext::empty();
        self.extend(&mut ctx, jobs, cloud);
        ctx
    }

    /// Appends the queue context for one more submission batch (whose
    /// jobs are indexed right after everything already in `ctx`) — the
    /// incremental form the service uses to inject batches onto a live
    /// executor. WFQ virtual finishes carry across batches through the
    /// context's per-tenant state; a single batch over an empty context
    /// computes one epoch's worth from scratch.
    pub(crate) fn extend(&self, ctx: &mut QueueContext, jobs: &[WorkloadJob], cloud: &Cloud) {
        let estimates = |jobs: &[WorkloadJob]| -> Vec<u64> {
            jobs.iter()
                .map(|j| estimated_service_ticks(&j.circuit, cloud))
                .collect()
        };
        match self {
            AdmissionPolicy::Fcfs | AdmissionPolicy::Backfill => {}
            AdmissionPolicy::PriorityBackfill(weights) => {
                ctx.metrics
                    .get_or_insert_with(Vec::new)
                    .extend(jobs.iter().map(|j| job_metric(&j.circuit, weights)));
            }
            AdmissionPolicy::ShortestJobFirst => {
                // Shortest first = highest metric first under negation.
                ctx.metrics
                    .get_or_insert_with(Vec::new)
                    .extend(estimates(jobs).iter().map(|&e| -(e as f64)));
            }
            AdmissionPolicy::WeightedFairShare => {
                let batch = wfq_virtual_finish(jobs, &estimates(jobs), &mut ctx.tenant_finish);
                ctx.metrics.get_or_insert_with(Vec::new).extend(batch);
            }
            AdmissionPolicy::DeadlineAware => {
                let est = estimates(jobs);
                // Earliest deadline first; deadline-free jobs last.
                ctx.metrics
                    .get_or_insert_with(Vec::new)
                    .extend(jobs.iter().map(|j| {
                        j.deadline
                            .map(|d| -(d.as_ticks() as f64))
                            .unwrap_or(f64::NEG_INFINITY)
                    }));
                ctx.sla
                    .get_or_insert_with(Vec::new)
                    .extend(jobs.iter().zip(est).map(|(j, e)| (j.deadline, e)));
            }
        }
    }

    /// SLA admission control: the job's absolute deadline if, at `now`,
    /// its estimated completion can no longer meet it (the runtime then
    /// rejects it with [`crate::error::ExecError::SlaExpired`]). Always
    /// `None` outside [`AdmissionPolicy::DeadlineAware`].
    pub(crate) fn sla_violation(&self, ctx: &QueueContext, job: usize, now: Tick) -> Option<Tick> {
        let (deadline, est) = ctx.sla.as_ref()?.get(job).copied()?;
        let deadline = deadline?;
        (now.as_ticks() + est > deadline.as_ticks()).then_some(deadline)
    }

    /// Inserts `job` into `queue` at its policy position: arrival order
    /// for FCFS/backfill, metric order (descending, stable by job
    /// index) for every metric-driven policy.
    pub(crate) fn enqueue(&self, queue: &mut Vec<usize>, job: usize, metrics: Option<&[f64]>) {
        match metrics {
            None => queue.push(job),
            Some(m) => {
                let pos = queue.partition_point(|&q| m[q] > m[job] || (m[q] == m[job] && q < job));
                queue.insert(pos, job);
            }
        }
    }
}

/// WFQ virtual finish times, negated so "higher sorts earlier" yields
/// ascending finish order: processing the batch's jobs in arrival order
/// (stable by workload index, the same order the runtime enqueues),
/// each job finishes at `max(arrival, tenant's previous finish) +
/// est / weight`. The per-tenant finish times live in (and persist
/// through) `tenant_finish`, so successive batches chain.
fn wfq_virtual_finish(
    jobs: &[WorkloadJob],
    estimates: &[u64],
    tenant_finish: &mut Vec<f64>,
) -> Vec<f64> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].arrival);
    let tenants = jobs.iter().map(|j| j.tenant + 1).max().unwrap_or(0);
    if tenant_finish.len() < tenants {
        tenant_finish.resize(tenants, 0.0);
    }
    let mut metric = vec![0.0f64; jobs.len()];
    for &i in &order {
        let job = &jobs[i];
        let start = (job.arrival.as_ticks() as f64).max(tenant_finish[job.tenant]);
        let finish = start + estimates[i] as f64 / job.weight;
        tenant_finish[job.tenant] = finish;
        metric[i] = -finish;
    }
    metric
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{order_jobs, OrderingPolicy};
    use crate::placement::estimate::estimate_execution_time;
    use crate::placement::Placement;
    use crate::workload::Workload;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_circuit::Circuit;
    use cloudqc_cloud::{CloudBuilder, QpuId};

    fn circuits() -> Vec<Circuit> {
        vec![
            catalog::by_name("ghz_n127").unwrap(),
            catalog::by_name("qft_n100").unwrap(),
            catalog::by_name("vqe_n4").unwrap(),
            catalog::by_name("qft_n100").unwrap(), // metric tie with job 1
        ]
    }

    fn jobs() -> Vec<WorkloadJob> {
        Workload::batch(circuits()).jobs().to_vec()
    }

    fn cloud() -> cloudqc_cloud::Cloud {
        CloudBuilder::paper_default(1).build()
    }

    fn fill(policy: &AdmissionPolicy, jobs: &[WorkloadJob]) -> Vec<usize> {
        let ctx = policy.prepare(jobs, &cloud());
        let mut queue = Vec::new();
        for j in 0..jobs.len() {
            policy.enqueue(&mut queue, j, ctx.metrics());
        }
        queue
    }

    #[test]
    fn priority_enqueue_matches_batch_manager_order() {
        let policy = AdmissionPolicy::default();
        let queue = fill(&policy, &jobs());
        let expected = order_jobs(&circuits(), OrderingPolicy::default());
        assert_eq!(queue, expected);
        // Ties keep arrival order (stable).
        let pos1 = queue.iter().position(|&j| j == 1).unwrap();
        let pos3 = queue.iter().position(|&j| j == 3).unwrap();
        assert!(pos1 < pos3);
    }

    #[test]
    fn arrival_policies_keep_order() {
        for policy in [AdmissionPolicy::Fcfs, AdmissionPolicy::Backfill] {
            let queue = fill(&policy, &jobs()[..3]);
            assert_eq!(queue, vec![0, 1, 2]);
        }
    }

    #[test]
    fn only_fcfs_blocks() {
        assert!(AdmissionPolicy::Fcfs.head_of_line_blocks());
        for policy in [
            AdmissionPolicy::Backfill,
            AdmissionPolicy::default(),
            AdmissionPolicy::ShortestJobFirst,
            AdmissionPolicy::WeightedFairShare,
            AdmissionPolicy::DeadlineAware,
        ] {
            assert!(!policy.head_of_line_blocks(), "{policy:?}");
        }
    }

    #[test]
    fn sjf_sorts_by_estimated_service_ascending() {
        let queue = fill(&AdmissionPolicy::ShortestJobFirst, &jobs());
        let cloud = cloud();
        let est: Vec<u64> = circuits()
            .iter()
            .map(|c| estimated_service_ticks(c, &cloud))
            .collect();
        for pair in queue.windows(2) {
            assert!(
                est[pair[0]] <= est[pair[1]],
                "queue {queue:?} not shortest-first for estimates {est:?}"
            );
        }
        // The tiny vqe_n4 leads.
        assert_eq!(queue[0], 2);
    }

    #[test]
    fn fair_share_weights_divide_admission_bandwidth() {
        // Two tenants submit identical jobs at t = 0; tenant 0 has
        // triple weight, so its virtual finishes advance 3× slower and
        // its jobs interleave ahead: after each tenant's first job, two
        // more of tenant 0's fit before tenant 1's second.
        let c = catalog::by_name("qft_n29").unwrap();
        let w = Workload::batch(vec![c.clone(); 8]).assign_round_robin_tenants(&[3.0, 1.0]);
        let queue = fill(&AdmissionPolicy::WeightedFairShare, w.jobs());
        let tenant_of = |j: usize| j % 2;
        // Count tenant-0 jobs in the first half of the queue.
        let heavy_up_front = queue[..4].iter().filter(|&&j| tenant_of(j) == 0).count();
        assert!(
            heavy_up_front >= 3,
            "weight-3 tenant got {heavy_up_front}/4 of the front: {queue:?}"
        );
        // Both tenants' internal order stays FIFO.
        let t1_positions: Vec<usize> = queue
            .iter()
            .copied()
            .filter(|&j| tenant_of(j) == 1)
            .collect();
        assert!(t1_positions.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn deadline_orders_edf_and_flags_expired_jobs() {
        let cloud = cloud();
        let c = catalog::by_name("qft_n29").unwrap();
        let est = estimated_service_ticks(&c, &cloud);
        let mk = |deadline: Option<u64>| {
            let mut j = WorkloadJob::new(c.clone(), Tick::ZERO);
            j.deadline = deadline.map(Tick::new);
            j
        };
        let jobs = vec![
            mk(Some(est + 50_000)), // slack
            mk(Some(est + 10)),     // tight
            mk(None),               // no SLA
        ];
        let policy = AdmissionPolicy::DeadlineAware;
        let queue = fill(&policy, &jobs);
        assert_eq!(queue, vec![1, 0, 2], "EDF with deadline-free last");
        let ctx = policy.prepare(&jobs, &cloud);
        // At t = 0 every deadline is still feasible.
        for j in 0..jobs.len() {
            assert_eq!(policy.sla_violation(&ctx, j, Tick::ZERO), None, "job {j}");
        }
        // Once the tight job's slack is gone it must be flagged; the
        // deadline-free job never is.
        let late = Tick::new(20);
        assert_eq!(
            policy.sla_violation(&ctx, 1, late),
            Some(Tick::new(est + 10))
        );
        assert_eq!(policy.sla_violation(&ctx, 0, late), None);
        assert_eq!(policy.sla_violation(&ctx, 2, Tick::new(u64::MAX / 2)), None);
        // Non-deadline policies never flag anything.
        let backfill_ctx = AdmissionPolicy::Backfill.prepare(&jobs, &cloud);
        assert_eq!(
            AdmissionPolicy::Backfill.sla_violation(&backfill_ctx, 1, late),
            None
        );
    }

    #[test]
    fn estimates_scale_with_circuit_size() {
        let cloud = cloud();
        let small = estimated_service_ticks(&catalog::by_name("vqe_n4").unwrap(), &cloud);
        let big = estimated_service_ticks(&catalog::by_name("qft_n100").unwrap(), &cloud);
        assert!(small > 0);
        assert!(big > 10 * small, "small {small}, big {big}");
        // Gate-less circuits estimate to zero without panicking.
        assert_eq!(estimated_service_ticks(&Circuit::new(3), &cloud), 0);
    }

    #[test]
    fn estimate_is_the_all_local_critical_path() {
        let cloud = cloud();
        let mut circuits: Vec<Circuit> = ["vqe_n4", "qft_n29", "ghz_n16", "qugan_n11"]
            .iter()
            .map(|name| catalog::by_name(name).unwrap())
            .collect();
        circuits.push(Circuit::new(3));
        for c in &circuits {
            let local = Placement::new(vec![QpuId::new(0); c.num_qubits()]);
            assert_eq!(
                estimated_service_ticks(c, &cloud),
                estimate_execution_time(c, &local, &cloud) as u64,
                "{}",
                c.name()
            );
        }
    }
}
