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
//!   successive epochs compose instead of piling up at tick 0,
//! * lifetime totals of the executor's work counters
//!   ([`AllocStats`], [`BatchStats`]), the cache's hit/miss/eviction
//!   counters, and the preemption policy's suspension count, and
//! * in continuous mode, the *live engine itself*: executor, cloud
//!   ledger, and in-flight jobs stay resident between calls.
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
//!        │   one epoch: fresh         / drive_to_quiescence()
//!        │   clock-0 engine run       inject onto the LIVE engine,
//!        │   to quiescence;           advance until quiescent or the
//!        │   per-epoch RunReport      budget; WindowReport of the
//!        │          │                 completions/rejections seen
//!        │          │                        │
//!        │          ▼                        ▼
//!        └── more submits ◄────┴──► drain() ── flush + ServiceReport
//!                                              (lifetime totals)
//! ```
//!
//! Epoch mode is the degenerate case of the continuous clock: a
//! continuous run re-anchors whenever a submission lands on a fully
//! drained engine (fresh executor, ledger, and admission context — see
//! `runtime/engine.rs`), so continuous runs over concatenated workloads
//! reproduce epoch mode byte-for-byte whenever the cloud drains between
//! them; the golden test in `tests/runtime_golden.rs` pins this. The
//! two faces must not interleave mid-flight: [`Service::drive`] panics
//! while the continuous engine has in-flight work (quiesce first).
//!
//! Cache reuse never changes outcomes, only speed: with the default
//! exact signature a hit replays a pure function of inputs the
//! signature captures completely, and every reuse is re-validated with
//! `Placement::fits` (the two-epoch golden test pins warm-epoch
//! outcomes against independent cold runs).
//!
//! An epoch that fails with a [`PlacementError`] *restores* its
//! submissions to the pending buffer and contributes nothing to the
//! streaming metrics or lifetime counters (the pre-epoch report is
//! restored); only cache entries warmed before the failure remain —
//! memoized pure functions, observable solely as speed.

use crate::error::{ExecError, PlacementError};
use crate::exec::AllocStats;
use crate::placement::{CacheStats, Placement, PlacementAlgorithm, PlacementCache};
use crate::runtime::engine::Engine;
use crate::runtime::report::{JobRecord, RunReport};
use crate::runtime::{AdmissionPolicy, LoadShedPolicy};
use crate::schedule::Scheduler;
use crate::workload::{Workload, WorkloadJob};
use cloudqc_cloud::Cloud;
use cloudqc_sim::online::OnlineReport;
use cloudqc_sim::series::BatchStats;
use cloudqc_sim::Tick;

/// The full runtime configuration one epoch or era runs under, built by
/// [`crate::runtime::ServiceBuilder`]: one-shot runs and resident
/// services read the same value, so the two can never drift apart.
#[derive(Copy, Clone)]
pub(crate) struct RuntimeConfig<'a> {
    pub(crate) cloud: &'a Cloud,
    pub(crate) placement: &'a dyn PlacementAlgorithm,
    pub(crate) scheduler: &'a dyn Scheduler,
    pub(crate) admission: AdmissionPolicy,
    pub(crate) path_reservation: bool,
    pub(crate) placement_cache: bool,
    pub(crate) cache_quantum: usize,
    pub(crate) cache_capacity: usize,
    /// Whether the placement cache's incremental-repair tier is on:
    /// near-miss lookups (same circuit and seed, adjacent free-capacity
    /// bucket) are patched with `placement::repair` instead of falling
    /// straight through to a full placement run.
    pub(crate) placement_repair: bool,
    pub(crate) fingerprint_seeding: bool,
    pub(crate) preemption: bool,
    pub(crate) aging_rate: f64,
    pub(crate) load_shed: Option<LoadShedPolicy>,
    /// Completion-time reservoir capacity of the streaming report.
    pub(crate) reservoir_capacity: usize,
    pub(crate) seed: u64,
}

/// Lifetime summary of a [`Service`]: everything it aggregated across
/// every epoch and continuous window driven so far.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Epochs driven to completion (continuous windows do not count).
    pub epochs: u64,
    /// Jobs completed across all epochs and windows.
    pub completed: u64,
    /// Jobs rejected across all epochs and windows (communication
    /// starvation, SLA expiry, load shedding, or unplaceability).
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
    /// the order they were submitted).
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

/// A resident runtime serving an unbounded job stream over long-lived
/// state, with an epoch face ([`Service::drive`]) and a continuous
/// face ([`Service::drive_until`] and friends).
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
    cfg: RuntimeConfig<'a>,
    /// The persistent placement cache (None when disabled by config).
    cache: Option<PlacementCache>,
    /// Streaming metrics over every completion the service has seen.
    online: OnlineReport,
    /// Jobs submitted since the last `drive*` call.
    pending: Vec<WorkloadJob>,
    /// The continuous-clock engine, once `drive_until`/`drive_for`/
    /// `drive_to_quiescence` has been called.
    live: Option<Engine<'a>>,
    /// Lifetime tick the *next* era starts at, when no engine is live.
    clock: u64,
    /// Jobs ever injected into continuous engines (the continuous
    /// reporting index space).
    injected: usize,
    epochs: u64,
    completed: u64,
    rejected: u64,
    allocation: AllocStats,
    event_batches: BatchStats,
    preemptions: u64,
}

impl<'a> Service<'a> {
    pub(crate) fn from_config(cfg: RuntimeConfig<'a>) -> Self {
        let cache = cfg.placement_cache.then(|| {
            PlacementCache::with_quantum(cfg.cache_quantum)
                .with_capacity(cfg.cache_capacity)
                .with_repair(cfg.placement_repair)
        });
        Service {
            cache,
            online: OnlineReport::with_reservoir(cfg.reservoir_capacity, cfg.seed),
            pending: Vec::new(),
            live: None,
            clock: 0,
            injected: 0,
            epochs: 0,
            completed: 0,
            rejected: 0,
            allocation: AllocStats::default(),
            event_batches: BatchStats::default(),
            preemptions: 0,
            cfg,
        }
    }

    /// Buffers one job (default tenant metadata) for the next `drive*`
    /// call; returns its index within the pending buffer.
    pub fn submit(&mut self, circuit: cloudqc_circuit::Circuit, arrival: Tick) -> usize {
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

    /// Jobs buffered and not yet handed to an engine.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Epochs driven to completion so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The service's lifetime clock: how much simulated time every
    /// epoch and continuous window has covered so far.
    pub fn now(&self) -> Tick {
        match &self.live {
            Some(engine) => engine.now(),
            None => Tick::new(self.clock),
        }
    }

    /// Arrived jobs currently waiting for admission on the live
    /// continuous engine (0 when none is live).
    pub fn queue_depth(&self) -> usize {
        self.live.as_ref().map_or(0, |e| e.queue_depth())
    }

    /// Jobs admitted and still running on the live continuous engine
    /// (0 when none is live).
    pub fn in_flight(&self) -> usize {
        self.live.as_ref().map_or(0, |e| e.in_flight())
    }

    /// The streaming metrics aggregated so far.
    pub fn online(&self) -> &OnlineReport {
        &self.online
    }

    /// The cloud this service schedules onto.
    pub fn cloud(&self) -> &'a Cloud {
        self.cfg.cloud
    }

    /// Speculatively places `job` against the current free-capacity
    /// ledger (the live engine's when one exists, the idle cloud's
    /// otherwise) *without* submitting it — the probe a fleet router
    /// uses to score backends before committing a job to one.
    ///
    /// The probe goes through the persistent [`PlacementCache`] when
    /// enabled, so repeated probes of hot shapes are cheap and warm the
    /// cache for the eventual admission; probe lookups count in
    /// [`Service::cache_stats`] like any other. The probed seed equals
    /// the admission seed under fingerprint seeding (the default); with
    /// fingerprint seeding off, admission seeds depend on the job's
    /// submission index — unknowable before routing — so the probe uses
    /// the raw run seed as an approximation (fine for *scoring*; the
    /// actual admission recomputes).
    pub(crate) fn probe_place(&mut self, job: &WorkloadJob) -> Result<Placement, PlacementError> {
        let fingerprint = job.circuit.fingerprint();
        let seed = if self.cfg.fingerprint_seeding {
            self.cfg.seed ^ fingerprint.as_u64()
        } else {
            self.cfg.seed
        };
        let idle;
        let status = match &self.live {
            Some(engine) => engine.status(),
            None => {
                idle = self.cfg.cloud.status();
                &idle
            }
        };
        match self.cache.as_mut() {
            Some(cache) => cache.place_fingerprinted(
                fingerprint,
                self.cfg.placement,
                &job.circuit,
                self.cfg.cloud,
                status,
                seed,
            ),
            None => self
                .cfg
                .placement
                .place(&job.circuit, self.cfg.cloud, status, seed),
        }
    }

    /// Drains the service for a backend failure: every unfinished job —
    /// in flight (suspended via the preemption machinery, partial
    /// progress lost), waiting for admission, not yet arrived, or still
    /// in the pending buffer — is withdrawn, and their continuous-clock
    /// record indices are returned in ascending order, exactly once
    /// each, so a fleet can re-submit them to surviving backends.
    ///
    /// The lifetime clock, streaming metrics, cache, and work counters
    /// survive; the live engine is retired (its executor state is
    /// discarded — restart-from-scratch failover, placements are not
    /// migratable across clouds). Pending jobs consume their record
    /// indices even though they never ran, keeping the index space
    /// append-only. The service itself remains usable: recovery is
    /// simply submitting to it again.
    pub fn evacuate(&mut self) -> Vec<usize> {
        let mut evacuated = Vec::new();
        if let Some(mut engine) = self.live.take() {
            evacuated = engine.evacuate();
            self.clock = engine.now().as_ticks();
            self.allocation.merge(engine.allocation());
            self.event_batches.merge(&engine.event_batches());
            self.preemptions += engine.preemptions();
        }
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
        let mut allocation = self.allocation;
        let mut event_batches = self.event_batches.clone();
        let mut preemptions = self.preemptions;
        if let Some(engine) = &self.live {
            allocation.merge(engine.allocation());
            event_batches.merge(&engine.event_batches());
            preemptions += engine.preemptions();
        }
        ServiceReport {
            epochs: self.epochs,
            completed: self.completed,
            rejected: self.rejected,
            online: self.online.clone(),
            placement_cache: self.cache_stats(),
            cache_entries: self.cache_entries(),
            allocation,
            event_batches,
            preemptions,
        }
    }

    /// Flushes any buffered submissions (through the live continuous
    /// engine if one exists, else one final epoch) and returns the
    /// lifetime totals.
    ///
    /// # Errors
    ///
    /// Propagates the flush run's [`PlacementError`], if any (the
    /// continuous path rejects unplaceable jobs instead of erroring).
    pub fn drain(&mut self) -> Result<ServiceReport, PlacementError> {
        if self.live.is_some() {
            self.drive_to_quiescence()?;
            self.retire_live();
        } else if !self.pending.is_empty() {
            self.drive()?;
        }
        Ok(self.report())
    }

    /// Runs every buffered submission to completion as one epoch and
    /// reports it. The epoch's simulation clock starts at tick 0 over
    /// an idle cloud (its span still advances the service's lifetime
    /// clock, so streaming series stay monotone across epochs); the
    /// persistent cache and streaming metrics carry over from previous
    /// epochs.
    ///
    /// The returned [`RunReport`] is *per-epoch*: its
    /// [`RunReport::placement_cache`] counters are the deltas this
    /// epoch added to the persistent cache (so a fully-warm epoch shows
    /// hits with zero misses), and its outcome records are this epoch's
    /// only, stamped on the epoch-local clock. Lifetime aggregates
    /// accumulate on the service ([`Service::report`]).
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if some job can never be placed even on an
    /// idle cloud (it would otherwise wait forever). Jobs whose
    /// *placement* succeeds but can never *execute* (communication
    /// starvation), and jobs whose SLA expired under deadline-aware
    /// admission, are rejected in the report, not errors. A failed
    /// epoch *restores* its submissions to the pending buffer (so
    /// callers can inspect or retry them) and contributes nothing to
    /// the streaming metrics or lifetime counters — the pre-epoch
    /// report is restored, so [`Service::report`] stays internally
    /// consistent (only placement-cache entries warmed before the
    /// failure remain, which is observable solely as speed).
    ///
    /// # Panics
    ///
    /// Panics if the continuous engine has in-flight work — call
    /// [`Service::drive_to_quiescence`] first; a quiescent engine is
    /// retired transparently.
    pub fn drive(&mut self) -> Result<RunReport, PlacementError> {
        assert!(
            self.live.as_ref().is_none_or(|e| e.is_quiescent()),
            "cannot drive an epoch while the continuous engine has in-flight work; \
             call drive_to_quiescence() first"
        );
        self.retire_live();
        let jobs = std::mem::take(&mut self.pending);
        let cache_before = self.cache_stats();
        let online_before = self.online.clone();
        match self.run_epoch(&jobs) {
            Ok(report) => {
                self.epochs += 1;
                self.completed += report.outcomes.len() as u64;
                self.rejected += report.rejected.len() as u64;
                self.allocation.merge(report.allocation);
                self.event_batches.merge(&report.event_batches);
                Ok(RunReport {
                    placement_cache: self.cache_stats().since(&cache_before),
                    ..report
                })
            }
            Err(e) => {
                // Roll back the partial epoch's streaming records so
                // the lifetime counters (which only advance above, on
                // success) and the online report never diverge — and
                // put the submissions back where the caller can see
                // them.
                self.online = online_before;
                self.pending = jobs;
                Err(e)
            }
        }
    }

    /// Advances the continuous clock until it reaches `deadline` (a
    /// lifetime tick) or the service quiesces, whichever comes first.
    /// Buffered submissions are injected onto the live engine first —
    /// mid-flight if work is running, re-anchoring a fresh era if the
    /// cloud has fully drained. Returns what the window observed.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] only in pathological engine states;
    /// unplaceable jobs are rejected with [`ExecError::Unplaceable`]
    /// rather than erroring.
    pub fn drive_until(&mut self, deadline: Tick) -> Result<WindowReport, PlacementError> {
        self.advance_live(Some(deadline))
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
        self.advance_live(None)
    }

    fn advance_live(&mut self, deadline: Option<Tick>) -> Result<WindowReport, PlacementError> {
        if self.live.is_none() {
            self.live = Some(Engine::new(self.cfg, true, self.clock));
        }
        let jobs = std::mem::take(&mut self.pending);
        let first = self.injected;
        self.injected += jobs.len();
        let cache_active = self.cache.is_some();
        let engine = self.live.as_mut().expect("engine installed above");
        engine.inject(jobs, first, cache_active);
        engine.advance(&mut self.online, &mut self.cache, deadline)?;
        let (outcomes, rejected) = engine.take_window();
        self.completed += outcomes.len() as u64;
        self.rejected += rejected.len() as u64;
        Ok(WindowReport {
            now: engine.now(),
            quiescent: engine.is_quiescent(),
            outcomes,
            rejected,
        })
    }

    /// Folds a quiescent live engine's stats into the lifetime totals
    /// and drops it, so epoch mode can take over the clock.
    fn retire_live(&mut self) {
        if let Some(engine) = self.live.take() {
            debug_assert!(engine.is_quiescent(), "retire requires quiescence");
            self.clock = engine.now().as_ticks();
            self.allocation.merge(engine.allocation());
            self.event_batches.merge(&engine.event_batches());
            self.preemptions += engine.preemptions();
        }
    }

    /// The event loop of one epoch: a fresh engine injected once and
    /// advanced to quiescence (the degenerate case of the continuous
    /// clock).
    fn run_epoch(&mut self, jobs: &[WorkloadJob]) -> Result<RunReport, PlacementError> {
        let n = jobs.len();
        let mut engine = Engine::new(self.cfg, false, self.clock);
        engine.inject(jobs.to_vec(), 0, self.cache.is_some());
        engine.advance(&mut self.online, &mut self.cache, None)?;
        let (mut outcomes, rejected) = engine.take_window();
        outcomes.sort_by_key(|o| o.job);
        debug_assert_eq!(outcomes.len() + rejected.len(), n, "every job accounted");
        let makespan = outcomes
            .iter()
            .map(|o| o.finished_at)
            .max()
            .unwrap_or(Tick::ZERO);
        // The epoch's span still advances the lifetime clock; stats of
        // the epoch's executor fold into the lifetime totals in
        // `drive` (via the report), not here.
        self.clock = engine.now().as_ticks();
        self.preemptions += engine.preemptions();
        Ok(RunReport {
            final_free_computing: engine.free_computing(),
            final_free_communication: engine.comm_free().to_vec(),
            placement_cache: self.cache_stats(),
            event_batches: engine.event_batches(),
            allocation: engine.allocation(),
            outcomes,
            rejected,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::runtime::ServiceBuilder;
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
                .cache_quantum(2)
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
        // fit the whole cloud, so the epoch errors *after* a completion
        // was streamed. The rollback must keep the lifetime counters
        // and the online report in lockstep (both untouched) and put
        // the submissions back in the pending buffer.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(8)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3).build();
        svc.submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
        svc.submit(catalog::by_name("ghz_n25").unwrap(), Tick::new(100_000));
        let err = svc.drive().unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
        let report = svc.report();
        assert_eq!(report.epochs, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.online.completed(), 0);
        assert_eq!(report.online.rejected(), 0);
        assert_eq!(report.online.throughput_per_tick(), 0.0);
        assert_eq!(svc.now(), Tick::ZERO, "a failed epoch leaves the clock");
        // The fix: a failed epoch restores its submissions so callers
        // can inspect what was in it or retry after dropping the
        // offender.
        assert_eq!(svc.pending(), 2, "a failed epoch restores submissions");
        // Drop the oversized job and retry what's left.
        svc.pending.truncate(1);
        let ok = svc.drive().unwrap();
        assert_eq!(ok.outcomes.len(), 1);
        assert_eq!(svc.report().completed, 1);
        assert_eq!(svc.online().completed(), 1);
        assert_eq!(svc.pending(), 0);
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
            assert_eq!(a, b, "slicing the clock must not change outcomes");
        }
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
    fn aging_lets_a_starved_job_jump_the_sjf_queue() {
        // One 28-qubit QPU: ghz_n25 (25 qubits) and a vqe_n4 (4) fit
        // individually but never together. The ghz arrives at tick 0
        // with a wave of seven mice that packs the QPU exactly; two
        // more seven-mouse waves arrive at ticks 1 and 2 while the
        // first is running. Each wave drains all at once (identical
        // local circuits admitted together), and at every drain SJF
        // hands the freed capacity to the fresher short jobs — the ghz
        // goes dead last. Aging scales with *how long* a job has
        // waited, so with a large rate the tick-0 ghz outranks the
        // tick-1 mice at the first drain and claims it.
        let cloud = CloudBuilder::new(1).computing_qubits(28).build();
        let placement = CloudQcPlacement::default();
        let mouse = catalog::by_name("vqe_n4").unwrap();
        let mut jobs = vec![(catalog::by_name("ghz_n25").unwrap(), Tick::new(0))];
        for wave in 0..3u64 {
            jobs.extend(std::iter::repeat_n((mouse.clone(), Tick::new(wave)), 7));
        }
        let w = Workload::trace(jobs);
        let run = |aging: f64| {
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 2)
                .admission(AdmissionPolicy::ShortestJobFirst)
                .aging_rate(aging)
                .build();
            svc.submit_workload(&w);
            svc.drive().unwrap()
        };
        let plain = run(0.0);
        let aged = run(1e6);
        let ghz_of = |r: &RunReport| r.outcomes.iter().find(|o| o.job == 0).unwrap().clone();
        assert_eq!(plain.outcomes.len(), 22);
        assert_eq!(aged.outcomes.len(), 22);
        assert!(
            ghz_of(&aged).admitted_at < ghz_of(&plain).admitted_at,
            "aging must admit the starved job earlier: {:?} vs {:?}",
            ghz_of(&aged).admitted_at,
            ghz_of(&plain).admitted_at
        );
        assert!(ghz_of(&aged).finished_at < ghz_of(&plain).finished_at);
    }

    #[test]
    fn preemption_parks_the_elephant_for_a_critical_mouse() {
        // Two QPUs with one communication pair each and slow EPR
        // generation: a deadline-free elephant splits across both and
        // monopolizes the fabric, then a deadline-carrying mouse lands
        // mid-flight and must also split. Without preemption the
        // mouse's remote gates queue behind the elephant's; with it the
        // elephant's gates are parked until the mouse clears.
        let cloud = CloudBuilder::new(2)
            .computing_qubits(16)
            .communication_qubits(1)
            .epr_success_prob(0.2)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let elephant = Workload::trace(vec![(catalog::by_name("ghz_n20").unwrap(), Tick::new(0))]);
        let mouse = Workload::trace(vec![(catalog::by_name("ghz_n12").unwrap(), Tick::new(200))])
            .with_uniform_sla(1_000_000);
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
        assert!(some > 0, "the elephant was never suspended");
        assert_eq!(
            plain.outcomes.len(),
            2,
            "both jobs complete without preemption"
        );
        assert_eq!(
            preempted.outcomes.len(),
            2,
            "preemption defers, never kills"
        );
        let mouse_of = |r: &RunReport| r.outcomes.iter().find(|o| o.job == 1).unwrap().clone();
        assert!(
            mouse_of(&preempted).remote_gates > 0,
            "the mouse must contend for the fabric for the A/B to mean anything"
        );
        assert!(
            mouse_of(&preempted).completion_time < mouse_of(&plain).completion_time,
            "preemption must speed up the critical mouse: {:?} vs {:?}",
            mouse_of(&preempted).completion_time,
            mouse_of(&plain).completion_time
        );
    }

    #[test]
    #[should_panic(expected = "in-flight work")]
    fn epoch_drive_refuses_a_busy_continuous_engine() {
        let cloud = CloudBuilder::paper_default(4).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
        svc.submit_workload(&Workload::poisson(&pool(), 5, 2_000.0, 4));
        let window = svc.drive_for(10).unwrap();
        assert!(!window.quiescent, "work must still be in flight");
        svc.submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
        let _ = svc.drive();
    }
}
