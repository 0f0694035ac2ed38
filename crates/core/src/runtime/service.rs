//! The resident service core: one long-lived process serving an
//! unbounded job stream on a continuous clock.
//!
//! [`crate::runtime::ServiceBuilder::run`] models a *finite trace*:
//! every call rebuilds the placement cache from cold and retains every
//! job outcome in memory to assemble its [`RunReport`]. A
//! production-scale service cannot do either. [`Service`] is the same
//! event loop made resident — it owns the state that must outlive any
//! single run:
//!
//! * a persistent [`PlacementCache`] shared across epochs and windows,
//! * a streaming [`OnlineReport`] (constant-memory running aggregates
//!   plus a bounded reservoir for percentiles) stamped on the service's
//!   *lifetime clock*, so throughput and last-finish series from
//!   successive epochs compose instead of piling up at tick 0, and
//! * the live era its event loop (the child module `engine`) advances:
//!   executor, cloud ledger, admission queue, and in-flight jobs stay
//!   resident between calls, together with the lifetime totals of the
//!   executor's work counters ([`AllocStats`], [`BatchStats`]) and the
//!   preemption policy's suspension count.
//!
//! # Lifecycle
//!
//! ```text
//!   ServiceBuilder::build()
//!        │
//!        ▼
//!     Service ──► submit / submit_workload      (buffer jobs)
//!        ▲                     │
//!        │          ┌──────────┴─────────────┐
//!        │          ▼                        ▼
//!        │   drive()                  drive_until(t) / drive_for(Δ)
//!        │   one epoch: arrivals      / drive_to_quiescence()
//!        │   offset by now(), then    inject onto the live era,
//!        │   drive_to_quiescence();   advance until quiescent or the
//!        │   RunReport restamped      budget; WindowReport of the
//!        │   from the epoch start     completions/rejections seen
//!        │          │                        │
//!        │          ▼                        ▼
//!        └── more submits ◄────┴──► drain() ── flush + ServiceReport
//!                                              (lifetime totals)
//! ```
//!
//! Both faces drive the same loop. An epoch is a drive to quiescence
//! reported in the epoch frame: job indices from 0 and ticks from the
//! epoch's start. A submission that lands on a drained service
//! re-anchors a fresh era (fresh executor, ledger, and admission
//! context — see the `engine` module), so every epoch starts from the
//! state of a new service and equals an independent run; the golden
//! tests in `tests/runtime_golden.rs` pin this. [`Service::drive`]
//! returns [`PlacementError::ServiceBusy`] and changes nothing while
//! the service has in-flight work (quiesce first).
//!
//! Cache reuse never changes outcomes, only speed: the cache key holds
//! everything a placement reads (the circuit's fingerprint, the exact
//! free vector and the seed), so a hit replays a pure function of its
//! inputs (the two-epoch golden test pins warm-epoch outcomes against
//! independent cold runs).
//!
//! A job that can never be placed, even on an idle cloud, is rejected
//! with [`ExecError::Unplaceable`] in every face; it never fails the
//! rest of its epoch or window.

mod engine;

use crate::error::{ExecError, PlacementError};
use crate::exec::{AllocStats, Executor};
use crate::placement::{CacheStats, Placement, PlacementCache};
use crate::runtime::admission::QueueContext;
use crate::runtime::report::{JobRecord, RunReport};
use crate::runtime::ServiceBuilder;
use crate::workload::{Workload, WorkloadJob};
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use cloudqc_sim::online::OnlineReport;
use cloudqc_sim::series::BatchStats;
use cloudqc_sim::Tick;

/// Lifetime summary of a [`Service`]: everything it aggregated across
/// every epoch and continuous window driven so far.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Epochs driven to completion (continuous windows do not count).
    pub epochs: u64,
    /// Jobs completed across all epochs and windows
    /// ([`OnlineReport::completed`]).
    pub completed: u64,
    /// Jobs rejected across all epochs and windows (communication
    /// starvation, SLA expiry, load shedding, or unplaceability;
    /// [`OnlineReport::rejected`]).
    pub rejected: u64,
    /// The streaming metrics aggregated over every completion, on the
    /// lifetime clock.
    pub online: OnlineReport,
    /// Lifetime hit/miss/eviction counters of the persistent placement
    /// cache (all zero when the cache is disabled).
    pub placement_cache: CacheStats,
    /// Entries currently resident in the persistent cache.
    pub cache_entries: usize,
    /// Lifetime allocation-pass work counters summed over every
    /// executor the service ran.
    pub allocation: AllocStats,
    /// Lifetime same-tick event-batch distribution summed over every
    /// executor the service ran.
    pub event_batches: BatchStats,
    /// Lifetime job suspensions performed by the preemption policy.
    pub preemptions: u64,
}

/// What one continuous-clock window observed: the completions and
/// rejections that happened between the previous `drive_*` call and
/// this one.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Jobs that completed in the window, in completion order, stamped
    /// on the lifetime clock. [`JobRecord::job`] is the job's lifetime
    /// submission index (continuous submissions are numbered from 0 in
    /// the order they were submitted; epochs number their own jobs).
    pub outcomes: Vec<JobRecord>,
    /// Jobs rejected in the window (same index space), with the typed
    /// reason — SLA expiry, communication starvation, load shedding
    /// ([`ExecError::LoadShed`]), or unplaceability
    /// ([`ExecError::Unplaceable`]).
    pub rejected: Vec<(usize, ExecError)>,
    /// The lifetime clock after the window.
    pub now: Tick,
    /// Whether the service is fully quiescent: nothing in flight,
    /// nothing waiting, nothing still to arrive.
    pub quiescent: bool,
}

/// One injected job, in the era-local frame.
struct EraJob {
    /// A handle on the submitted circuit: it shares the submission's
    /// gates and memoized fingerprint, so the table costs a few words
    /// per job.
    circuit: Circuit,
    /// Arrival on the era-local clock (lifetime arrivals earlier than
    /// the era's base land at local tick 0 — "submitted in the past"
    /// means "arrives immediately").
    arrival: Tick,
    /// Whether the job carries an SLA deadline — the preemption
    /// trigger's definition of "critical".
    critical: bool,
    /// The index this job is reported under: its lifetime submission
    /// index.
    record_index: usize,
}

/// One admitted job, keyed by its executor id.
struct Admitted {
    job: usize,
    demand: Vec<usize>,
    critical: bool,
}

/// A resident runtime serving an unbounded job stream over long-lived
/// state. One event loop serves two faces: epochs ([`Service::drive`])
/// and the continuous clock ([`Service::drive_until`] and friends).
///
/// Construct one through [`crate::runtime::ServiceBuilder::build`].
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::CloudQcPlacement;
/// use cloudqc_core::runtime::ServiceBuilder;
/// use cloudqc_core::schedule::CloudQcScheduler;
/// use cloudqc_core::workload::Workload;
///
/// let cloud = CloudBuilder::paper_default(1).build();
/// let placement = CloudQcPlacement::default();
/// let mut service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7).build();
/// let pool = vec![catalog::by_name("qft_n29").unwrap()];
/// let workload = Workload::poisson(&pool, 3, 5_000.0, 7);
///
/// // Epoch 1 fills the persistent cache; epoch 2 runs warm.
/// service.submit_workload(&workload);
/// let cold = service.drive().unwrap();
/// service.submit_workload(&workload);
/// let warm = service.drive().unwrap();
/// assert_eq!(cold.completion_times(), warm.completion_times());
/// assert!(warm.placement_cache.hits > 0);
///
/// let report = service.drain().unwrap();
/// assert_eq!(report.epochs, 2);
/// assert_eq!(report.completed, 6);
/// assert!(report.online.mean_completion_time() > 0.0);
/// ```
pub struct Service<'a> {
    /// The configuration this service was built from.
    cfg: ServiceBuilder<'a>,
    /// The persistent placement cache (None when disabled by config).
    cache: Option<PlacementCache>,
    /// Streaming metrics over every completion and rejection the
    /// service has seen.
    online: OnlineReport,
    /// Jobs submitted since the last `drive*` call.
    pending: Vec<WorkloadJob>,
    /// Jobs ever handed to the loop by the continuous faces (the
    /// lifetime submission index space).
    injected: usize,
    epochs: u64,
    /// Lifetime tick at which the era's local clock 0 sits.
    clock_base: u64,
    /// The era's free-capacity ledger (what admission places against).
    status: CloudStatus,
    exec: Executor<'a>,
    ctx: QueueContext,
    /// The era's injected jobs, by era-local id.
    jobs: Vec<EraJob>,
    /// Era-local job ids not yet enqueued, sorted by (arrival, id);
    /// `next_arrival` is the cursor.
    upcoming: Vec<usize>,
    next_arrival: usize,
    /// Era-local ids of arrived-but-not-admitted jobs, in policy order.
    waiting: Vec<usize>,
    admitted: Vec<Admitted>,
    /// Admitted-and-unfinished jobs holding an SLA deadline; while
    /// positive (and preemption is on) non-critical jobs stay
    /// suspended.
    critical_running: usize,
    /// Whether the admission queue could admit differently since the
    /// last pass (a job arrived, a completion freed capacity, or a
    /// suspension was lifted). Gating admission on this skips passes
    /// that cannot admit anything new. It does not make budget slicing
    /// transparent: a budget deadline is itself an admission instant,
    /// so capacity that a completion frees before the deadline is
    /// offered to waiting jobs at the deadline, where an uninterrupted
    /// run offers it only at the next arrival. Once a job waits for
    /// capacity, slicing can change the schedule (ROADMAP item 2).
    admission_dirty: bool,
    /// Completions recorded since the current window began.
    outcomes: Vec<JobRecord>,
    /// Rejections recorded since the current window began.
    rejections: Vec<(usize, ExecError)>,
    /// Work counters of executors retired by past re-anchors.
    retired_allocation: AllocStats,
    retired_batches: BatchStats,
    retired_preemptions: u64,
    /// Reused buffer threaded through the executor's advances, so
    /// draining finished jobs allocates nothing per call.
    finished_scratch: Vec<usize>,
}

impl<'a> Service<'a> {
    pub(crate) fn new(cfg: ServiceBuilder<'a>) -> Self {
        Service {
            cache: cfg.placement_cache.then(PlacementCache::new),
            online: OnlineReport::new(cfg.seed),
            pending: Vec::new(),
            injected: 0,
            epochs: 0,
            clock_base: 0,
            status: cfg.cloud.status(),
            exec: engine::fresh_executor(&cfg),
            ctx: QueueContext::empty(),
            jobs: Vec::new(),
            upcoming: Vec::new(),
            next_arrival: 0,
            waiting: Vec::new(),
            admitted: Vec::new(),
            critical_running: 0,
            admission_dirty: false,
            outcomes: Vec::new(),
            rejections: Vec::new(),
            retired_allocation: AllocStats::default(),
            retired_batches: BatchStats::default(),
            retired_preemptions: 0,
            finished_scratch: Vec::new(),
            cfg,
        }
    }

    /// Buffers one job (default tenant metadata) for the next `drive*`
    /// call; returns its index within the pending buffer.
    pub fn submit(&mut self, circuit: Circuit, arrival: Tick) -> usize {
        self.submit_job(WorkloadJob::new(circuit, arrival))
    }

    /// Buffers one job with explicit tenant/weight/deadline metadata;
    /// returns its index within the pending buffer.
    pub fn submit_job(&mut self, job: WorkloadJob) -> usize {
        self.pending.push(job);
        self.pending.len() - 1
    }

    /// Buffers every job of `workload` for the next `drive*` call.
    pub fn submit_workload(&mut self, workload: &Workload) {
        self.pending.extend(workload.jobs().iter().cloned());
    }

    /// Jobs buffered and not yet injected onto the live era.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The jobs buffered and not yet injected onto the live era.
    #[cfg(test)]
    pub(crate) fn pending_jobs(&self) -> &[WorkloadJob] {
        &self.pending
    }

    /// Epochs driven to completion so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The service's lifetime clock: how much simulated time every
    /// epoch and continuous window has covered so far.
    pub fn now(&self) -> Tick {
        self.shift(self.exec.now())
    }

    /// Arrived jobs currently waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// Jobs admitted and still running.
    pub fn in_flight(&self) -> usize {
        self.exec.unfinished_jobs()
    }

    /// The streaming metrics aggregated so far.
    pub fn online(&self) -> &OnlineReport {
        &self.online
    }

    /// The cloud this service schedules onto.
    pub fn cloud(&self) -> &'a Cloud {
        self.cfg.cloud
    }

    /// Speculatively places `job` against the service's current
    /// free-capacity ledger *without* submitting it — the probe a fleet
    /// router uses to score backends before committing a job to one.
    ///
    /// The probe places exactly as admission would, with the same seed
    /// and through the persistent [`PlacementCache`] when enabled, so
    /// repeated probes of hot shapes are cheap and warm the cache for
    /// the eventual admission; probe lookups count in
    /// [`Service::cache_stats`] like any other.
    pub(crate) fn probe_place(&mut self, job: &WorkloadJob) -> Result<Placement, PlacementError> {
        self.cfg
            .place(self.cache.as_mut(), &job.circuit, &self.status)
    }

    /// Drains the service for a backend failure: every unfinished job —
    /// in flight (suspended via the preemption machinery, partial
    /// progress lost), waiting for admission, not yet arrived, or still
    /// in the pending buffer — is withdrawn, and their lifetime
    /// submission indices are returned in ascending order, exactly once
    /// each, so a fleet can re-submit them to surviving backends.
    ///
    /// The lifetime clock, streaming metrics, cache, and work counters
    /// survive; the service starts a fresh, empty era at the current
    /// lifetime tick (its executor state is discarded —
    /// restart-from-scratch failover, placements are not migratable
    /// across clouds). Suspending the in-flight jobs first returns
    /// their communication pairs and counts them as preemptions.
    /// Pending jobs consume their indices even though they never ran,
    /// keeping the index space append-only. The service itself remains
    /// usable: recovery is simply submitting to it again.
    pub fn evacuate(&mut self) -> Vec<usize> {
        debug_assert!(
            self.outcomes.is_empty() && self.rejections.is_empty(),
            "every window reports its records before an evacuation"
        );
        let mut evacuated = Vec::new();
        for id in 0..self.admitted.len() {
            if self.exec.job_result(id).is_none() {
                self.exec.suspend_job(id);
                evacuated.push(self.jobs[self.admitted[id].job].record_index);
            }
        }
        let unadmitted = self
            .waiting
            .iter()
            .chain(&self.upcoming[self.next_arrival..]);
        evacuated.extend(unadmitted.map(|&id| self.jobs[id].record_index));
        evacuated.sort_unstable();
        self.reanchor();
        let first = self.injected;
        self.injected += self.pending.len();
        evacuated.extend(first..self.injected);
        self.pending.clear();
        evacuated
    }

    /// Lifetime counters of the persistent placement cache (zeroed
    /// when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Entries currently resident in the persistent cache.
    pub fn cache_entries(&self) -> usize {
        self.cache.as_ref().map(|c| c.len()).unwrap_or_default()
    }

    /// Snapshot of the lifetime totals without driving anything.
    pub fn report(&self) -> ServiceReport {
        let mut allocation = self.retired_allocation;
        allocation.merge(self.exec.alloc_stats());
        let mut event_batches = self.retired_batches.clone();
        event_batches.merge(self.exec.batch_stats());
        ServiceReport {
            epochs: self.epochs,
            completed: self.online.completed(),
            rejected: self.online.rejected(),
            online: self.online.clone(),
            placement_cache: self.cache_stats(),
            cache_entries: self.cache_entries(),
            allocation,
            event_batches,
            preemptions: self.retired_preemptions + self.exec.preemptions(),
        }
    }

    /// Flushes any buffered submissions and returns the lifetime
    /// totals: a busy service is driven to quiescence
    /// ([`Service::drive_to_quiescence`]), and pending jobs on a
    /// quiescent one run as one final epoch ([`Service::drive`]).
    ///
    /// # Errors
    ///
    /// As [`Service::drive_until`].
    pub fn drain(&mut self) -> Result<ServiceReport, PlacementError> {
        if !self.is_quiescent() {
            self.drive_to_quiescence()?;
        } else if !self.pending.is_empty() {
            self.drive()?;
        }
        Ok(self.report())
    }

    /// Runs every buffered submission to completion as one epoch and
    /// reports it. The pending jobs' arrivals and deadlines are read
    /// relative to the epoch's start, [`Service::now`]: they are offset
    /// by it and driven with [`Service::drive_to_quiescence`]. The
    /// epoch lands on a drained cloud, so it starts over an idle cloud
    /// from a fresh era; the persistent cache and streaming metrics
    /// carry over from previous epochs.
    ///
    /// The returned [`RunReport`] is *per-epoch*: its outcome records
    /// and rejections are this epoch's only, with job indices from 0
    /// in submission order and every tick — including the payload of
    /// [`ExecError::SlaExpired`] — counted from the epoch's start. Its
    /// [`RunReport::placement_cache`] counters are the deltas this
    /// epoch added to the persistent cache (so a fully-warm epoch shows
    /// hits with zero misses), and its work counters are this epoch's
    /// executor's. Lifetime aggregates accumulate on the service
    /// ([`Service::report`]).
    ///
    /// Jobs that can never be placed even on an idle cloud, jobs whose
    /// placement can never *execute* (communication starvation), and
    /// jobs whose SLA expired under deadline-aware admission are
    /// rejected in the report; the rest of the epoch runs on.
    ///
    /// # Errors
    ///
    /// [`PlacementError::ServiceBusy`], leaving the service as it was,
    /// if the service has in-flight work — call
    /// [`Service::drive_to_quiescence`] first. Otherwise as
    /// [`Service::drive_until`].
    pub fn drive(&mut self) -> Result<RunReport, PlacementError> {
        if !self.is_quiescent() {
            return Err(PlacementError::ServiceBusy);
        }
        let start = self.now().as_ticks();
        let first = self.injected;
        let cache_before = self.cache_stats();
        for job in &mut self.pending {
            job.arrival = Tick::new(job.arrival.as_ticks() + start);
            job.deadline = job.deadline.map(|d| Tick::new(d.as_ticks() + start));
        }
        let window = self.drive_to_quiescence()?;
        self.epochs += 1;
        let local = |t: Tick| Tick::new(t.as_ticks() - start);
        let mut outcomes = window.outcomes;
        for o in &mut outcomes {
            o.job -= first;
            o.arrived_at = local(o.arrived_at);
            o.admitted_at = local(o.admitted_at);
            o.finished_at = local(o.finished_at);
        }
        outcomes.sort_by_key(|o| o.job);
        let mut rejected = window.rejected;
        for (job, err) in &mut rejected {
            *job -= first;
            if let ExecError::SlaExpired { deadline, now } = err {
                *deadline = local(*deadline);
                *now = local(*now);
            }
        }
        // The injection re-anchored a fresh era, so the live executor's
        // counters are this epoch's alone; an empty epoch ran nothing.
        let (allocation, event_batches) = if first == self.injected {
            Default::default()
        } else {
            (self.exec.alloc_stats(), self.exec.batch_stats().clone())
        };
        // Every epoch job has finished, so its index can be handed out
        // again: epochs leave the continuous index space untouched.
        self.injected = first;
        Ok(RunReport {
            makespan: outcomes
                .iter()
                .map(|o| o.finished_at)
                .max()
                .unwrap_or(Tick::ZERO),
            final_free_computing: (0..self.cfg.cloud.qpu_count())
                .map(|i| self.status.free_computing(QpuId::new(i)))
                .collect(),
            final_free_communication: self.exec.comm_free().to_vec(),
            placement_cache: self.cache_stats().since(&cache_before),
            event_batches,
            allocation,
            outcomes,
            rejected,
        })
    }

    /// Advances the continuous clock until it reaches `deadline` (a
    /// lifetime tick) or the service quiesces, whichever comes first.
    /// Buffered submissions are injected onto the live era first —
    /// mid-flight if work is running, re-anchoring a fresh era if the
    /// cloud has fully drained. Returns what the window observed.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] only in pathological loop states;
    /// unplaceable jobs are rejected with [`ExecError::Unplaceable`]
    /// rather than erroring.
    pub fn drive_until(&mut self, deadline: Tick) -> Result<WindowReport, PlacementError> {
        self.advance(Some(deadline))
    }

    /// [`Service::drive_until`] relative form: advance the continuous
    /// clock by `ticks` from now.
    pub fn drive_for(&mut self, ticks: u64) -> Result<WindowReport, PlacementError> {
        let deadline = Tick::new(self.now().as_ticks().saturating_add(ticks));
        self.drive_until(deadline)
    }

    /// Advances the continuous clock until nothing is in flight,
    /// waiting, or still to arrive. Returns what the window observed
    /// (with [`WindowReport::quiescent`] true).
    ///
    /// # Errors
    ///
    /// As [`Service::drive_until`].
    pub fn drive_to_quiescence(&mut self) -> Result<WindowReport, PlacementError> {
        self.advance(None)
    }

    /// Injects the pending buffer, runs the loop until quiescent or the
    /// lifetime tick `deadline`, and reports the window.
    fn advance(&mut self, deadline: Option<Tick>) -> Result<WindowReport, PlacementError> {
        self.inject();
        self.run(deadline)?;
        Ok(WindowReport {
            outcomes: std::mem::take(&mut self.outcomes),
            rejected: std::mem::take(&mut self.rejections),
            now: self.now(),
            quiescent: self.is_quiescent(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::runtime::{AdmissionPolicy, LoadShedPolicy};
    use crate::schedule::CloudQcScheduler;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn pool() -> Vec<Circuit> {
        vec![
            catalog::by_name("qugan_n39").unwrap(),
            catalog::by_name("qft_n29").unwrap(),
            catalog::by_name("ghz_n40").unwrap(),
        ]
    }

    #[test]
    fn epochs_accumulate_lifetime_totals() {
        let cloud = CloudBuilder::paper_default(3).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5).build();
        assert_eq!(svc.pending(), 0);
        let w = Workload::poisson(&pool(), 4, 3_000.0, 5);
        svc.submit_workload(&w);
        assert_eq!(svc.pending(), 4);
        let e1 = svc.drive().unwrap();
        assert_eq!(svc.pending(), 0);
        svc.submit_workload(&w);
        let e2 = svc.drive().unwrap();
        assert_eq!(svc.epochs(), 2);
        let report = svc.report();
        assert_eq!(
            report.completed,
            (e1.outcomes.len() + e2.outcomes.len()) as u64
        );
        assert_eq!(report.online.completed(), report.completed);
        assert_eq!(
            report.allocation.rounds,
            e1.allocation.rounds + e2.allocation.rounds
        );
        assert_eq!(
            report.event_batches.ticks(),
            e1.event_batches.ticks() + e2.event_batches.ticks()
        );
        // Per-epoch cache stats are deltas; lifetime is their sum.
        assert_eq!(
            report.placement_cache.hits,
            e1.placement_cache.hits + e2.placement_cache.hits
        );
        assert_eq!(
            report.placement_cache.misses,
            e1.placement_cache.misses + e2.placement_cache.misses
        );
        assert!(report.cache_entries > 0);
    }

    #[test]
    fn lifetime_clock_spans_epochs_and_keeps_series_monotone() {
        // Satellite regression: successive epochs used to restamp the
        // streaming report from tick 0, so lifetime series overlapped.
        // The lifetime clock must advance past epoch 1's makespan and
        // the online report's last-finish must land on it.
        let cloud = CloudBuilder::paper_default(3).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5).build();
        let w = Workload::poisson(&pool(), 4, 3_000.0, 5);
        svc.submit_workload(&w);
        let e1 = svc.drive().unwrap();
        let after_first = svc.now();
        assert!(after_first >= e1.makespan, "clock covers the epoch");
        let last_finish_1 = svc.online().last_finish();
        svc.submit_workload(&w);
        let e2 = svc.drive().unwrap();
        assert!(svc.now() > after_first, "clock keeps advancing");
        let last_finish_2 = svc.online().last_finish();
        assert!(
            last_finish_2 > last_finish_1,
            "epoch 2 completions stamp after epoch 1 ({last_finish_2:?} vs {last_finish_1:?})"
        );
        assert_eq!(
            last_finish_2.as_ticks(),
            after_first.as_ticks() + e2.makespan.as_ticks(),
            "epoch-local stamps shift by the lifetime base"
        );
        // Per-epoch reports stay epoch-local (byte-compatible with
        // pre-continuous goldens).
        assert!(e2.outcomes.iter().any(|o| o.finished_at <= e2.makespan));
    }

    #[test]
    fn warm_epoch_hits_the_persistent_cache_with_identical_outcomes() {
        let cloud = CloudBuilder::paper_default(7).build();
        let placement = CloudQcPlacement::default();
        let w = Workload::batch(pool());
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 11).build();
        svc.submit_workload(&w);
        let cold = svc.drive().unwrap();
        svc.submit_workload(&w);
        let warm = svc.drive().unwrap();
        assert_eq!(cold.outcomes, warm.outcomes);
        assert!(warm.placement_cache.hits > 0, "warm epoch never hit");
        assert!(
            warm.placement_cache.misses < cold.placement_cache.misses,
            "warm epoch should re-place less: {:?} vs {:?}",
            warm.placement_cache,
            cold.placement_cache
        );
    }

    #[test]
    fn drain_flushes_pending_submissions() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3).build();
        for c in pool() {
            svc.submit(c, Tick::ZERO);
        }
        let report = svc.drain().unwrap();
        assert_eq!(report.epochs, 1);
        assert_eq!(report.completed, 3);
        assert_eq!(report.rejected, 0);
        // Draining an idle service is a no-op snapshot.
        let again = svc.drain().unwrap();
        assert_eq!(again.epochs, 1);
        assert_eq!(again.completed, 3);
        // A continuous window numbers its submissions from 0: the
        // epoch's jobs are not in its index space.
        svc.submit_workload(&Workload::batch(pool()));
        let window = svc.drive_to_quiescence().unwrap();
        let mut jobs: Vec<usize> = window.outcomes.iter().map(|o| o.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2]);
        // A busy service is flushed by finishing its continuous drive,
        // which is not an epoch.
        svc.submit_workload(&Workload::batch(pool()));
        assert!(!svc.drive_for(10).unwrap().quiescent);
        let busy = svc.drain().unwrap();
        assert_eq!(busy.epochs, 1);
        assert_eq!(busy.completed, 9);
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn empty_epoch_is_a_clean_noop() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3).build();
        let report = svc.drive().unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.makespan, Tick::ZERO);
        assert_eq!(svc.epochs(), 1);
    }

    #[test]
    fn service_inherits_orchestrator_configuration() {
        // A service built from a configuration runs the same epoch a
        // one-shot run of that configuration would.
        let cloud = CloudBuilder::paper_default(9).build();
        let placement = CloudQcPlacement::default();
        let w = Workload::poisson(&pool(), 5, 2_000.0, 9);
        let builder = || {
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 9)
                .admission(AdmissionPolicy::ShortestJobFirst)
        };
        let direct = builder().run(&w).unwrap();
        let mut svc = builder().build();
        svc.submit_workload(&w);
        let epoch = svc.drive().unwrap();
        assert_eq!(direct.outcomes, epoch.outcomes);
        assert_eq!(direct.rejected, epoch.rejected);
    }

    #[test]
    fn failed_epoch_leaves_lifetime_and_streaming_reports_consistent() {
        // Job 0 completes before job 1 even arrives; job 1 can never
        // fit the whole cloud. The epoch rejects job 1 with a typed
        // error instead of failing, job 2 still runs, and the lifetime
        // counters agree with the streaming report.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(8)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3).build();
        svc.submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
        svc.submit(catalog::by_name("ghz_n25").unwrap(), Tick::new(100_000));
        svc.submit(catalog::by_name("vqe_n4").unwrap(), Tick::new(200_000));
        let epoch = svc.drive().unwrap();
        assert_eq!(svc.pending(), 0);
        let done: Vec<usize> = epoch.outcomes.iter().map(|o| o.job).collect();
        assert_eq!(done, vec![0, 2], "the rest of the epoch completes");
        assert_eq!(epoch.rejected.len(), 1);
        let (job, err) = &epoch.rejected[0];
        assert_eq!(*job, 1);
        assert!(
            matches!(
                err,
                ExecError::Unplaceable(PlacementError::InsufficientCapacity {
                    required: 25,
                    available: 16,
                })
            ),
            "{err:?}"
        );
        assert_eq!(epoch.final_free_computing, vec![8, 8]);
        let report = svc.report();
        assert_eq!(report.epochs, 1);
        assert_eq!(report.completed, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, svc.online().completed());
        assert_eq!(report.rejected, svc.online().rejected());
        assert_eq!(svc.now(), epoch.makespan, "the epoch started at tick 0");
    }

    #[test]
    fn deadline_policy_rejects_expired_jobs_in_service_runs() {
        // A tiny cloud serializes three identical jobs; with an SLA
        // budget only slightly above one service time, the third job's
        // deadline expires while it queues and it must be rejected.
        let cloud = CloudBuilder::new(3)
            .computing_qubits(10)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let probe = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
            .run(&Workload::batch(vec![catalog::by_name("ghz_n25").unwrap()]))
            .unwrap();
        let service_time = probe.makespan.as_ticks();
        let w = Workload::batch(vec![catalog::by_name("ghz_n25").unwrap(); 3])
            .with_uniform_sla(service_time * 2);
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
            .admission(AdmissionPolicy::DeadlineAware)
            .build();
        svc.submit_workload(&w);
        let report = svc.drive().unwrap();
        assert!(
            report
                .rejected
                .iter()
                .any(|(_, e)| matches!(e, ExecError::SlaExpired { .. })),
            "no SLA rejection: completed {}, rejected {:?}",
            report.outcomes.len(),
            report.rejected
        );
        assert_eq!(report.outcomes.len() + report.rejected.len(), 3);
        assert_eq!(svc.online().rejected(), report.rejected.len() as u64);
    }

    #[test]
    fn continuous_drive_matches_epoch_results() {
        // One workload through drive_to_quiescence == the same workload
        // through one epoch (fresh services, same config).
        let cloud = CloudBuilder::paper_default(4).build();
        let placement = CloudQcPlacement::default();
        let w = Workload::poisson(&pool(), 5, 2_000.0, 4);
        let epoch = {
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
            svc.submit_workload(&w);
            svc.drive().unwrap()
        };
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
        svc.submit_workload(&w);
        let window = svc.drive_to_quiescence().unwrap();
        assert!(window.quiescent);
        assert_eq!(window.outcomes.len(), epoch.outcomes.len());
        let mut by_job = window.outcomes.clone();
        by_job.sort_by_key(|o| o.job);
        for (a, b) in by_job.iter().zip(&epoch.outcomes) {
            assert_eq!(a.job, b.job);
            assert_eq!(a.completion_time, b.completion_time);
            assert_eq!(a.finished_at, b.finished_at, "first era starts at base 0");
        }
        assert_eq!(window.now, w.last_arrival().max(epoch.makespan));
        assert_eq!(svc.report().completed, epoch.outcomes.len() as u64);
    }

    #[test]
    fn drive_for_budget_pauses_and_resumes_mid_flight() {
        let cloud = CloudBuilder::paper_default(4).build();
        let placement = CloudQcPlacement::default();
        let w = Workload::poisson(&pool(), 6, 2_000.0, 4);
        // Reference: one uninterrupted continuous run.
        let mut whole = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
        whole.submit_workload(&w);
        let complete = whole.drive_to_quiescence().unwrap();
        // Same stream advanced in small budget slices.
        let mut sliced = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
        sliced.submit_workload(&w);
        let mut outcomes = Vec::new();
        let mut windows = 0;
        loop {
            let window = sliced.drive_for(1_500).unwrap();
            outcomes.extend(window.outcomes);
            windows += 1;
            assert!(windows < 10_000, "budget slices must make progress");
            if window.quiescent {
                break;
            }
            // A budget-bounded window parks the clock on the deadline.
            assert_eq!(window.now, sliced.now());
        }
        assert!(windows > 2, "the workload spans several slices");
        assert_eq!(outcomes.len(), complete.outcomes.len());
        for (a, b) in outcomes.iter().zip(&complete.outcomes) {
            // Slicing is not transparent in general: a budget deadline
            // is an admission instant, so once a job waits for
            // capacity a sliced run can admit it earlier than an
            // uninterrupted one (ROADMAP item 2). On this light stream
            // the slices reproduce the uninterrupted schedule.
            assert_eq!(
                a, b,
                "1 500-tick slices of this light stream reproduce the uninterrupted run"
            );
        }
    }

    #[test]
    fn pending_buffer_and_engine_share_the_submitted_gates() {
        let cloud = CloudBuilder::paper_default(3).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5).build();
        let p = pool();
        svc.submit_workload(&Workload::poisson(&p, 6, 1_000.0, 2));
        svc.submit(p[0].clone(), Tick::new(50_000));
        let shares = |i: usize, c: &Circuit| c.gates().as_ptr() == p[i % p.len()].gates().as_ptr();
        let pending = svc.pending_jobs();
        assert_eq!(pending.len(), 7);
        assert!(pending
            .iter()
            .enumerate()
            .all(|(i, j)| shares(i, &j.circuit)));
        svc.drive_until(Tick::new(1)).unwrap();
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.jobs.len(), 7);
        assert!(svc
            .jobs
            .iter()
            .enumerate()
            .all(|(i, j)| shares(i, &j.circuit)));
    }

    #[test]
    fn admission_pass_looks_up_each_failing_shape_once_per_admission() {
        // `one_pass` submits a blocker at tick 0 and twelve waiters of
        // three shapes at tick 2, so one pass sees them all, and returns
        // that pass's lookups and the queue it leaves. Fingerprint
        // seeding gives each shape one cache key.
        let cloud = CloudBuilder::new(2).computing_qubits(20).build();
        let placement = CloudQcPlacement::default();
        let lookups = |s: CacheStats| s.hits + s.misses;
        let one_pass = |blocker: &str, admission: AdmissionPolicy| {
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5)
                .admission(admission)
                .build();
            svc.submit(catalog::by_name(blocker).unwrap(), Tick::new(0));
            svc.drive_for(1).unwrap();
            let shapes = ["vqe_n4", "qft_n29", "ising_n34"];
            for name in shapes.iter().cycle().take(12) {
                svc.submit(catalog::by_name(name).unwrap(), Tick::new(2));
            }
            let before = lookups(svc.cache_stats());
            svc.drive_for(3).unwrap();
            let pass = (lookups(svc.cache_stats()) - before, svc.queue_depth());
            svc.drive_to_quiescence().unwrap();
            assert_eq!(svc.report().completed, 13);
            pass
        };
        // ghz_n40 fills both 20-qubit QPUs: nothing fits, and the pass
        // looks up each shape once, not each waiter.
        assert_eq!(one_pass("ghz_n40", AdmissionPolicy::default()), (3, 12));
        // ghz_n32 leaves room for two vqe_n4, and arrival order
        // interleaves the shapes. Each admission changes the free
        // vector, so the pass looks up a failed shape again after it:
        // 7 lookups where keeping the failures would make 5.
        assert_eq!(one_pass("ghz_n32", AdmissionPolicy::Backfill), (7, 10));
    }

    #[test]
    fn load_shedding_rejects_arrivals_over_the_depth_limit() {
        // A burst of simultaneous arrivals on a tiny cloud: with a
        // queue-depth cap the tail of the burst is shed at the door.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(10)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let jobs = vec![catalog::by_name("ghz_n16").unwrap(); 6];
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3)
            .load_shedding(LoadShedPolicy::queue_depth(2))
            .build();
        svc.submit_workload(&Workload::batch(jobs));
        let window = svc.drive_to_quiescence().unwrap();
        let shed: Vec<&(usize, ExecError)> = window
            .rejected
            .iter()
            .filter(|(_, e)| matches!(e, ExecError::LoadShed { .. }))
            .collect();
        assert!(!shed.is_empty(), "burst tail must be shed");
        assert_eq!(window.outcomes.len() + window.rejected.len(), 6);
        assert_eq!(svc.online().rejected(), window.rejected.len() as u64);
        // Without the policy everything eventually runs.
        let mut free = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3).build();
        free.submit_workload(&Workload::batch(vec![
            catalog::by_name("ghz_n16").unwrap();
            6
        ]));
        let open = free.drive_to_quiescence().unwrap();
        assert_eq!(open.outcomes.len(), 6);
    }

    #[test]
    fn preemption_parks_the_elephant_for_a_critical_mouse() {
        // Two QPUs with one communication pair each and slow EPR
        // generation: deadline-free elephants split across both and
        // monopolize the fabric, then deadline-carrying mice land
        // mid-flight and must also split. Without preemption the mice's
        // remote gates queue behind the elephants'; with it the
        // elephants' gates are parked until the mice clear. Two inputs:
        // one elephant and one mouse, then 4 elephants and 12 mice.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(16)
            .communication_qubits(1)
            .epr_success_prob(0.2)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let stream = |name: &str, count: u64, first: u64, gap: u64| {
            let circuit = catalog::by_name(name).unwrap();
            Workload::trace((0..count).map(|i| (circuit.clone(), Tick::new(first + i * gap))))
        };
        for (elephants, mice) in [(1, 1), (4, 12)] {
            let elephant = stream("ghz_n20", elephants, 0, 12_000);
            let mouse = stream("ghz_n12", mice, 200, 2_500).with_uniform_sla(1_000_000);
            let run = |preempt: bool| {
                let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 9)
                    .preemption(preempt)
                    .build();
                svc.submit_workload(&elephant);
                svc.submit_workload(&mouse);
                let report = svc.drive().unwrap();
                let preemptions = svc.report().preemptions;
                (report, preemptions)
            };
            let (plain, none) = run(false);
            let (preempted, some) = run(true);
            assert_eq!(none, 0, "preemption off must never suspend");
            assert!(some > 0, "the elephants were never suspended");
            let jobs = (elephants + mice) as usize;
            assert_eq!(plain.outcomes.len(), jobs, "every job completes");
            assert_eq!(preempted.outcomes.len(), jobs, "preemption defers");
            let mice_of = |r: &RunReport| -> Vec<JobRecord> {
                let mice = r.outcomes.iter().filter(|o| o.job >= elephants as usize);
                mice.cloned().collect()
            };
            assert!(
                mice_of(&preempted).iter().any(|o| o.remote_gates > 0),
                "the mice must contend for the fabric for the A/B to mean anything"
            );
            let p99 = |r: &RunReport| {
                let jcts = mice_of(r).into_iter().map(|o| o.completion_time.as_ticks());
                let mut jcts: Vec<u64> = jcts.collect();
                jcts.sort_unstable();
                jcts[(jcts.len() * 99).div_ceil(100) - 1]
            };
            let (fast, slow) = (p99(&preempted), p99(&plain));
            assert!(
                fast < slow,
                "preemption must speed up the critical mice's p99: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn epoch_drive_refuses_a_busy_continuous_engine() {
        let cloud = CloudBuilder::paper_default(4).build();
        let placement = CloudQcPlacement::default();
        let busy = || {
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
            svc.submit_workload(&Workload::poisson(&pool(), 5, 2_000.0, 4));
            let window = svc.drive_for(10).unwrap();
            assert!(!window.quiescent, "work must still be in flight");
            svc.submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
            svc
        };
        let (mut refused, mut untouched) = (busy(), busy());
        let now = refused.now();
        assert_eq!(refused.drive().unwrap_err(), PlacementError::ServiceBusy);
        assert_eq!((refused.now(), refused.pending()), (now, 1));
        // The refusal changed nothing: quiescing gives the outcomes of a
        // twin that was never refused.
        let after = refused.drive_to_quiescence().unwrap();
        let twin = untouched.drive_to_quiescence().unwrap();
        assert!(after.quiescent && !after.outcomes.is_empty());
        assert_eq!(after.outcomes, twin.outcomes);
        assert_eq!(after.rejected, twin.rejected);
        assert_eq!(after.now, twin.now);
    }
}
