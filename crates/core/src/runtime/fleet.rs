//! Federation: one provider facade over N continuous-clock backends.
//!
//! The paper's setting is a quantum *cloud provider*; a provider rarely
//! owns one homogeneous cloud. A [`Fleet`] owns N backend
//! [`Service`]s — heterogeneous QPU counts, topologies, and EPR
//! latencies, each built from its own [`ServiceBuilder`] — and presents
//! the single-service surface over all of them:
//!
//! ```text
//!            submit_job ──► RoutingPolicy ──► backend b
//!                               │ candidates = up ∧ ¬attempted
//!   Fleet ── drive_until(t) ────┼──────────────────────────────┐
//!    │                          ▼                              ▼
//!    │                    Service 0 ··· Service b ··· Service N-1
//!    │                    (own cloud, cache, clock base, loop)
//!    │   completions ◄── remap record index → fleet id ◄── windows
//!    │   rejections ──► spillover / re-route / final ──► window
//!    └── fail_backend(b) ──► evacuate ──► re-route survivors
//! ```
//!
//! **One shared lifetime clock.** `drive_until`/`drive_for` fan the
//! same deadline out to every healthy backend, so their lifetime clocks
//! advance in lockstep; a fleet of one drives exactly like the bare
//! service (pinned byte-identically in `tests/fleet.rs`).
//!
//! **Routing, spillover, backpressure.** Each submission with ≥ 2
//! eligible backends goes through the [`RoutingPolicy`] seam
//! ([`crate::runtime::routing`]). When a backend *rejects* a routed job
//! with a communication-starvation or unplaceability error, the job
//! spills over to the next-best backend that has not rejected it yet;
//! when a backend sheds it under overload ([`ExecError::LoadShed`]),
//! the shed is treated as a backpressure signal and the job re-routes
//! the same way. SLA expiry ([`ExecError::SlaExpired`]) is terminal —
//! the deadline is just as blown on any other backend. A job every
//! eligible backend has turned away is finally rejected with the last
//! error.
//!
//! **Operational fault tolerance.** [`Fleet::fail_backend`] drains a
//! downed backend through the preemption suspend machinery
//! ([`Service::evacuate`]): partial progress is lost
//! (restart-from-scratch failover — placements are not migratable
//! across clouds), but every unfinished job is re-routed to the
//! survivors, or parked as an *orphan* until
//! [`Fleet::recover_backend`] brings capacity back. The conservation
//! property test in `tests/fleet.rs` pins that submitted ==
//! completed + rejected + unresolved across arbitrary mid-run failures.

use crate::error::{ExecError, PlacementError};
use crate::exec::AllocStats;
use crate::placement::CacheStats;
use crate::runtime::routing::{RouteContext, RoutingPolicy, UtilizationBalanced};
use crate::runtime::service::{Service, ServiceReport, WindowReport};
use crate::runtime::ServiceBuilder;
use crate::workload::{Workload, WorkloadJob};
use cloudqc_sim::online::OnlineReport;
use cloudqc_sim::series::BatchStats;
use cloudqc_sim::Tick;

/// Where one fleet job currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    /// Not committed to any backend (fresh, or orphaned by failures).
    Unrouted,
    /// Committed to backend `.0`, queued or running there.
    Queued(usize),
    Completed,
    Rejected,
}

/// One submission and its routing history.
struct FleetJob {
    job: WorkloadJob,
    /// Backends that have *rejected* this job (spillover/re-route
    /// excludes them). A backend *failure* is not a rejection — after
    /// recovery the backend is eligible again.
    attempted: Vec<usize>,
    state: JobState,
}

/// One federated backend: a service plus its health and the mapping
/// from its continuous-clock record indices back to fleet job ids.
struct Backend<'a> {
    service: Service<'a>,
    up: bool,
    /// `routed[record_index] = fleet id`. The fleet is the backend's
    /// sole submitter, so submission order == record-index order, and a
    /// push per committed job keeps the mapping exact (evacuated
    /// indices stay mapped but are never reported again).
    routed: Vec<usize>,
}

/// Lifetime summary of a [`Fleet`]: federation-wide merges of every
/// backend's lifetime totals, plus the fleet's own routing counters.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-backend lifetime reports, in backend order.
    pub backends: Vec<ServiceReport>,
    /// The backends' streaming metrics merged into one federation-wide
    /// report (exact running stats, deterministic bounded-reservoir
    /// percentiles). Per-*event* accounting: a job that was shed on one
    /// backend and completed on another contributes both events here,
    /// where the per-job [`FleetReport::completed`]/
    /// [`FleetReport::rejected`] counters count it exactly once.
    pub online: OnlineReport,
    /// Fleet jobs whose final state is completed (per job, exactly
    /// once, regardless of how many backends it bounced through).
    pub completed: u64,
    /// Fleet jobs whose final state is rejected (per job; re-routed
    /// sheds that later complete do not count).
    pub rejected: u64,
    /// Jobs not yet resolved: still queued/running on a backend, or
    /// orphaned awaiting capacity.
    pub unresolved: u64,
    /// All backends' placement-cache counters summed.
    pub placement_cache: CacheStats,
    /// All backends' allocation-pass work counters merged.
    pub allocation: AllocStats,
    /// All backends' same-tick event-batch distributions merged.
    pub event_batches: BatchStats,
    /// All backends' preemption suspensions summed (includes failover
    /// evacuation suspends).
    pub preemptions: u64,
    /// Jobs re-routed after a backpressure shed ([`ExecError::LoadShed`]).
    pub reroutes: u64,
    /// Jobs spilled over after a communication-starvation or
    /// unplaceability rejection.
    pub spillovers: u64,
    /// Backend failures handled ([`Fleet::fail_backend`] calls that
    /// took an up backend down).
    pub failovers: u64,
    /// The routing policy's [`RoutingPolicy::name`].
    pub policy: &'static str,
}

/// Builds a [`Fleet`]: one [`ServiceBuilder`] per backend plus a
/// routing policy ([`UtilizationBalanced`] unless overridden).
///
/// # Example
///
/// ```
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::CloudQcPlacement;
/// use cloudqc_core::runtime::{FleetBuilder, RoundRobin, ServiceBuilder};
/// use cloudqc_core::schedule::CloudQcScheduler;
///
/// let small = CloudBuilder::paper_default(2).build();
/// let large = CloudBuilder::paper_default(6).build();
/// let placement = CloudQcPlacement::default();
/// let fleet = FleetBuilder::new()
///     .backend(ServiceBuilder::new(&small, &placement, &CloudQcScheduler, 7))
///     .backend(ServiceBuilder::new(&large, &placement, &CloudQcScheduler, 7))
///     .policy(RoundRobin::new())
///     .build();
/// assert_eq!(fleet.backend_count(), 2);
/// ```
pub struct FleetBuilder<'a> {
    backends: Vec<ServiceBuilder<'a>>,
    policy: Box<dyn RoutingPolicy>,
}

impl Default for FleetBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> FleetBuilder<'a> {
    /// An empty fleet with the default [`UtilizationBalanced`] policy.
    pub fn new() -> Self {
        FleetBuilder {
            backends: Vec::new(),
            policy: Box::new(UtilizationBalanced),
        }
    }

    /// Adds one backend, configured by its own [`ServiceBuilder`]
    /// (heterogeneous clouds, admission policies, caches, and seeds are
    /// all per-backend).
    pub fn backend(mut self, builder: ServiceBuilder<'a>) -> Self {
        self.backends.push(builder);
        self
    }

    /// Selects the routing policy.
    pub fn policy(mut self, policy: impl RoutingPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Selects an already-boxed routing policy — for driving a fleet
    /// from a `Vec<Box<dyn RoutingPolicy>>` matrix.
    pub fn boxed_policy(mut self, policy: Box<dyn RoutingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the fleet.
    ///
    /// # Panics
    ///
    /// Panics if no backend was added.
    pub fn build(self) -> Fleet<'a> {
        assert!(!self.backends.is_empty(), "a fleet needs a backend");
        Fleet {
            backends: self
                .backends
                .into_iter()
                .map(|builder| Backend {
                    service: builder.build(),
                    up: true,
                    routed: Vec::new(),
                })
                .collect(),
            policy: self.policy,
            jobs: Vec::new(),
            orphans: Vec::new(),
            completed: 0,
            rejected: 0,
            reroutes: 0,
            spillovers: 0,
            failovers: 0,
        }
    }
}

/// A federated provider over N continuous-clock backend [`Service`]s:
/// routed submission, lockstep clock fan-out, spillover and
/// backpressure re-routing, and drain-and-migrate failover. See the
/// module docs for the architecture.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::CloudQcPlacement;
/// use cloudqc_core::runtime::{FleetBuilder, ServiceBuilder};
/// use cloudqc_core::schedule::CloudQcScheduler;
/// use cloudqc_sim::Tick;
///
/// let a = CloudBuilder::paper_default(2).build();
/// let b = CloudBuilder::paper_default(3).build();
/// let placement = CloudQcPlacement::default();
/// let mut fleet = FleetBuilder::new()
///     .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 7))
///     .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, 7))
///     .build();
/// for i in 0..4 {
///     fleet.submit(catalog::by_name("qft_n29").unwrap(), Tick::new(i * 500));
/// }
/// let window = fleet.drive_to_quiescence().unwrap();
/// assert!(window.quiescent);
/// assert_eq!(window.outcomes.len(), 4);
/// let report = fleet.report();
/// assert_eq!(report.completed, 4);
/// assert_eq!(report.policy, "utilization-balanced");
/// ```
pub struct Fleet<'a> {
    backends: Vec<Backend<'a>>,
    policy: Box<dyn RoutingPolicy>,
    jobs: Vec<FleetJob>,
    /// Fleet ids with no eligible backend right now; re-routed on the
    /// next drive or recovery.
    orphans: Vec<usize>,
    completed: u64,
    rejected: u64,
    reroutes: u64,
    spillovers: u64,
    failovers: u64,
}

/// Whether a rejection is worth trying on another backend: starvation
/// and unplaceability are properties of *that* backend's fabric and
/// capacity (spillover), a shed is transient backpressure (re-route);
/// a blown SLA is blown everywhere (terminal).
fn reroutable(err: &ExecError) -> bool {
    !matches!(err, ExecError::SlaExpired { .. })
}

impl<'a> Fleet<'a> {
    /// Number of backends (up or down).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Whether backend `id` is currently healthy (`false` for an id
    /// that names no backend).
    pub fn is_up(&self, id: usize) -> bool {
        self.backends.get(id).is_some_and(|b| b.up)
    }

    /// Read access to backend `id`'s service (its online report, cache
    /// stats, queue depth, and clock).
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.backend_count()`.
    pub fn backend(&self, id: usize) -> &Service<'a> {
        &self.backends[id].service
    }

    /// Jobs ever submitted to the fleet.
    pub fn submitted(&self) -> u64 {
        self.jobs.len() as u64
    }

    /// Jobs not yet completed or rejected (queued, running, or
    /// orphaned).
    pub fn unresolved(&self) -> u64 {
        self.jobs.len() as u64 - self.completed - self.rejected
    }

    /// Jobs parked with no eligible backend while at least one backend
    /// is down (a recovery may open a path); they re-route
    /// automatically on the next drive or recovery. A job every backend
    /// in the fleet has *rejected* is not an orphan — it is finally
    /// rejected with the last error.
    pub fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// The fleet's lifetime clock: the farthest any backend has been
    /// driven.
    pub fn now(&self) -> Tick {
        self.backends
            .iter()
            .map(|b| b.service.now())
            .max()
            .expect("a fleet has a backend")
    }

    /// Routing policy name, for reports and tables.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Submits one circuit (default tenant metadata); returns its fleet
    /// job id. Routing happens immediately against current load; the
    /// job starts moving on the next `drive_*` call.
    pub fn submit(&mut self, circuit: cloudqc_circuit::Circuit, arrival: Tick) -> usize {
        self.submit_job(WorkloadJob::new(circuit, arrival))
    }

    /// Submits one job with explicit tenant/weight/deadline metadata;
    /// returns its fleet job id (the index space of every window's
    /// outcomes and rejections).
    pub fn submit_job(&mut self, job: WorkloadJob) -> usize {
        let id = self.jobs.len();
        self.jobs.push(FleetJob {
            job,
            attempted: Vec::new(),
            state: JobState::Unrouted,
        });
        self.route_job(id);
        id
    }

    /// Submits every job of `workload`.
    pub fn submit_workload(&mut self, workload: &Workload) {
        for job in workload.jobs() {
            self.submit_job(job.clone());
        }
    }

    /// Routes one unrouted job: commit directly when there is exactly
    /// one eligible backend (no probes, no policy — what keeps a fleet
    /// of one byte-identical to the bare service), consult the policy
    /// when there is a choice, orphan when there is none.
    fn route_job(&mut self, id: usize) {
        debug_assert!(matches!(
            self.jobs[id].state,
            JobState::Unrouted | JobState::Queued(_)
        ));
        let attempted = &self.jobs[id].attempted;
        let eligible: Vec<usize> = self
            .backends
            .iter()
            .enumerate()
            .filter(|(b, backend)| backend.up && !attempted.contains(b))
            .map(|(b, _)| b)
            .collect();
        let chosen = match eligible.as_slice() {
            [] => {
                self.jobs[id].state = JobState::Unrouted;
                self.orphans.push(id);
                return;
            }
            [only] => *only,
            _ => {
                let candidates: Vec<(usize, &mut Service<'a>)> = self
                    .backends
                    .iter_mut()
                    .enumerate()
                    .filter(|(b, _)| eligible.contains(b))
                    .map(|(b, backend)| (b, &mut backend.service))
                    .collect();
                let mut ctx = RouteContext::new(candidates);
                let chosen = self.policy.route(&self.jobs[id].job, &mut ctx);
                // An answer outside the candidate set is a policy bug;
                // the job takes the universal fallback.
                if eligible.contains(&chosen) {
                    chosen
                } else {
                    ctx.least_loaded()
                }
            }
        };
        self.backends[chosen].routed.push(id);
        self.backends[chosen]
            .service
            .submit_job(self.jobs[id].job.clone());
        self.jobs[id].state = JobState::Queued(chosen);
    }

    /// Re-routes every orphan that has become routable (after a
    /// recovery, or new backends' rejections changing nothing — an
    /// orphan with still no eligible backend goes right back).
    fn flush_orphans(&mut self) {
        for id in std::mem::take(&mut self.orphans) {
            self.route_job(id);
        }
    }

    /// Advances every healthy backend until the shared lifetime clock
    /// reaches `deadline`, re-routing rejections along the way (see the
    /// module docs). The merged window reports outcomes under fleet job
    /// ids, ordered by finish time (ties by backend order).
    ///
    /// # Errors
    ///
    /// [`PlacementError`] only in pathological loop states, as
    /// [`Service::drive_until`].
    pub fn drive_until(&mut self, deadline: Tick) -> Result<WindowReport, PlacementError> {
        self.advance(Some(deadline))
    }

    /// [`Fleet::drive_until`] relative form: advance every backend by
    /// `ticks` from the fleet's current clock.
    pub fn drive_for(&mut self, ticks: u64) -> Result<WindowReport, PlacementError> {
        let deadline = Tick::new(self.now().as_ticks().saturating_add(ticks));
        self.drive_until(deadline)
    }

    /// Advances until every healthy backend is quiescent and no job can
    /// be re-routed further. [`WindowReport::quiescent`] is false only
    /// when orphans are parked waiting for a recovery.
    ///
    /// # Errors
    ///
    /// As [`Fleet::drive_until`].
    pub fn drive_to_quiescence(&mut self) -> Result<WindowReport, PlacementError> {
        self.advance(None)
    }

    fn advance(&mut self, deadline: Option<Tick>) -> Result<WindowReport, PlacementError> {
        self.flush_orphans();
        let mut outcomes = Vec::new();
        let mut rejected = Vec::new();
        let mut quiescent = vec![true; self.backends.len()];
        // Each pass drives every healthy backend to the deadline and
        // re-routes what got rejected; a re-route hands work to a
        // backend that may already have been driven this pass, so loop
        // until a full pass re-routes nothing. Termination: a job's
        // `attempted` set only grows, and a pass without re-routes is
        // final.
        loop {
            let mut rerouted_any = false;
            for (b, backend_quiescent) in quiescent.iter_mut().enumerate() {
                if !self.backends[b].up {
                    continue;
                }
                let window = match deadline {
                    Some(d) => self.backends[b].service.drive_until(d)?,
                    None => self.backends[b].service.drive_to_quiescence()?,
                };
                *backend_quiescent = window.quiescent;
                for mut record in window.outcomes {
                    let id = self.backends[b].routed[record.job];
                    record.job = id;
                    debug_assert_eq!(self.jobs[id].state, JobState::Queued(b));
                    self.jobs[id].state = JobState::Completed;
                    self.completed += 1;
                    outcomes.push(record);
                }
                for (record_index, err) in window.rejected {
                    let id = self.backends[b].routed[record_index];
                    debug_assert_eq!(self.jobs[id].state, JobState::Queued(b));
                    self.jobs[id].attempted.push(b);
                    self.jobs[id].state = JobState::Unrouted;
                    if reroutable(&err) {
                        self.route_job(id);
                        if let JobState::Queued(_) = self.jobs[id].state {
                            if matches!(err, ExecError::LoadShed { .. }) {
                                self.reroutes += 1;
                            } else {
                                self.spillovers += 1;
                            }
                            rerouted_any = true;
                            continue;
                        }
                        // Nowhere left to go. While a *downed* backend
                        // has not yet rejected this job, it stays an
                        // orphan — a recovery may still run it.
                        let attempted = &self.jobs[id].attempted;
                        if (0..self.backends.len()).any(|b| !attempted.contains(&b)) {
                            continue;
                        }
                        // Every backend in the fleet has turned it
                        // away; recovery cannot open a new path, so the
                        // job is finally rejected with the last error
                        // (`route_job` just parked it — unpark).
                        self.orphans.retain(|&orphan| orphan != id);
                    }
                    self.jobs[id].state = JobState::Rejected;
                    self.rejected += 1;
                    rejected.push((id, err));
                }
            }
            if !rerouted_any {
                break;
            }
        }
        // Stable by finish time: a single backend's window is already
        // finish-ordered, so a fleet of one passes through unchanged;
        // ties across backends resolve by backend order,
        // deterministically.
        outcomes.sort_by_key(|record| record.finished_at);
        let quiescent = self.orphans.is_empty()
            && self
                .backends
                .iter()
                .zip(&quiescent)
                .all(|(backend, &q)| !backend.up || q);
        Ok(WindowReport {
            outcomes,
            rejected,
            now: self.now(),
            quiescent,
        })
    }

    /// Takes backend `id` down and drains it: every unfinished job —
    /// running (suspended through the preemption machinery, progress
    /// lost), waiting, or not yet arrived — is withdrawn and re-routed
    /// to the surviving backends (or orphaned when none is eligible).
    /// Returns how many jobs were evacuated: 0, with nothing changed,
    /// when `id` names no backend or one that is already down.
    ///
    /// A failure is not a rejection: evacuated jobs may route back to
    /// this backend after [`Fleet::recover_backend`].
    pub fn fail_backend(&mut self, id: usize) -> usize {
        if !self.is_up(id) {
            return 0;
        }
        self.backends[id].up = false;
        self.failovers += 1;
        let evacuated = self.backends[id].service.evacuate();
        let fleet_ids: Vec<usize> = evacuated
            .iter()
            .map(|&record_index| self.backends[id].routed[record_index])
            .collect();
        for fleet_id in &fleet_ids {
            debug_assert_eq!(self.jobs[*fleet_id].state, JobState::Queued(id));
            self.jobs[*fleet_id].state = JobState::Unrouted;
            self.route_job(*fleet_id);
        }
        fleet_ids.len()
    }

    /// Brings backend `id` back up (empty — restart-from-scratch
    /// recovery keeps its cache, clock, and streaming metrics, but no
    /// jobs) and immediately re-routes any orphans onto the restored
    /// capacity. Returns `false`, with nothing changed, when `id` names
    /// no backend or one that is already up.
    pub fn recover_backend(&mut self, id: usize) -> bool {
        match self.backends.get_mut(id) {
            Some(backend) if !backend.up => backend.up = true,
            _ => return false,
        }
        self.flush_orphans();
        true
    }

    /// Federation-wide lifetime report: per-backend totals plus their
    /// merged streaming metrics and the fleet's routing counters.
    pub fn report(&self) -> FleetReport {
        let backends: Vec<ServiceReport> =
            self.backends.iter().map(|b| b.service.report()).collect();
        let mut online = backends[0].online.clone();
        let mut placement_cache = backends[0].placement_cache;
        let mut allocation = backends[0].allocation;
        let mut event_batches = backends[0].event_batches.clone();
        let mut preemptions = backends[0].preemptions;
        for report in &backends[1..] {
            online.merge(&report.online);
            placement_cache.merge(&report.placement_cache);
            allocation.merge(report.allocation);
            event_batches.merge(&report.event_batches);
            preemptions += report.preemptions;
        }
        FleetReport {
            backends,
            online,
            completed: self.completed,
            rejected: self.rejected,
            unresolved: self.unresolved(),
            placement_cache,
            allocation,
            event_batches,
            preemptions,
            reroutes: self.reroutes,
            spillovers: self.spillovers,
            failovers: self.failovers,
            policy: self.policy.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::schedule::CloudQcScheduler;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    #[test]
    fn is_up_answers_false_for_unknown_ids() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let backend = || ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1);
        let mut fleet = FleetBuilder::new()
            .backend(backend())
            .backend(backend())
            .build();
        assert!(fleet.is_up(0) && fleet.is_up(1));
        assert!(!fleet.is_up(2));
        assert!(!fleet.is_up(usize::MAX));
        fleet.fail_backend(1);
        assert!(!fleet.is_up(1));
    }

    #[test]
    fn misplaced_failover_calls_change_nothing() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let backend = || ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1);
        let mut fleet = FleetBuilder::new()
            .backend(backend())
            .backend(backend())
            .build();
        fleet.submit(catalog::by_name("qft_n29").unwrap(), Tick::new(100));
        let state = |f: &Fleet| (f.is_up(0), f.is_up(1), f.unresolved(), f.orphans());
        let before = state(&fleet);
        assert!(!fleet.recover_backend(0), "backend 0 is up");
        assert_eq!(fleet.fail_backend(2), 0, "no backend 2");
        assert!(!fleet.recover_backend(usize::MAX));
        assert_eq!(state(&fleet), before);
        assert_eq!(fleet.report().failovers, 0);
        fleet.fail_backend(1);
        let down = state(&fleet);
        assert_eq!(fleet.fail_backend(1), 0, "backend 1 is already down");
        assert_eq!(state(&fleet), down);
        assert!(fleet.recover_backend(1));
        assert!(!fleet.recover_backend(1), "backend 1 is up again");
        assert_eq!(state(&fleet), before);
        assert_eq!(fleet.report().failovers, 1);
        let window = fleet.drive_to_quiescence().unwrap();
        assert_eq!(window.outcomes.len(), 1);
    }

    #[test]
    fn job_table_and_routed_copy_share_the_submitted_gates() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let backend = || ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1);
        let mut fleet = FleetBuilder::new()
            .backend(backend())
            .backend(backend())
            .build();
        let circuit = catalog::by_name("qft_n29").unwrap();
        let id = fleet.submit(circuit.clone(), Tick::new(100));
        let gates = circuit.gates().as_ptr();
        assert_eq!(fleet.jobs[id].job.circuit.gates().as_ptr(), gates);
        let JobState::Queued(b) = fleet.jobs[id].state else {
            panic!("two healthy backends: the job is routed");
        };
        let routed = fleet.backends[b].service.pending_jobs();
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].circuit.gates().as_ptr(), gates);
    }
}
