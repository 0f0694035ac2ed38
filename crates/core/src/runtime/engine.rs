//! The resident event loop behind every face of
//! [`crate::runtime::Service`].
//!
//! An [`Engine`] owns everything one *era* of simulation needs to stay
//! live between calls: the executor (with its event queue and RNG), the
//! cloud's free-capacity ledger, the admission queue context, the jobs
//! injected so far, and the not-yet-arrived tail of the stream. A
//! service owns exactly one engine. Submissions land on the live
//! executor mid-flight ([`Engine::inject`]), and [`Engine::advance`]
//! runs until quiescent or until a lifetime-tick budget.
//!
//! Every tick the engine reports is on the service's *lifetime* clock
//! (`clock_base + era-local`): job records, rejection payloads, and the
//! streaming [`OnlineReport`]. Multi-epoch throughput and last-finish
//! series are therefore monotone instead of piling up at tick 0. An
//! epoch (`Service::drive`) is a drive to quiescence whose records the
//! service restamps into the epoch frame afterwards.
//!
//! # Re-anchoring, and why an epoch is a drive to quiescence
//!
//! When the engine is fully quiescent (no waiting jobs, no in-flight
//! work, no future arrivals) and a new batch is injected, it
//! *re-anchors*: the lifetime clock base absorbs the elapsed era, and
//! the executor, capacity ledger, and admission context are rebuilt
//! fresh — exactly the state of a new service. Every admission metric
//! is shift-invariant under a uniform arrival offset (WFQ virtual
//! finishes restart with the context, EDF compares like-framed
//! deadlines, SJF/priority ignore time entirely), so a run over
//! concatenated workloads reproduces independent runs byte-for-byte
//! whenever the cloud drains between them — the golden tests in
//! `tests/runtime_golden.rs` pin this.
//!
//! # The policy tier
//!
//! The engine also hosts the scheduler policies that only make sense on
//! a live queue: **preemption** (admitting an SLA-critical job suspends
//! every running non-critical job's remote gates, returning their
//! communication pairs to the fabric until no critical job remains),
//! **aging** (waiting jobs gain priority linearly with queueing time,
//! bounding SJF/EDF starvation), and **load shedding** (arrivals are
//! turned away with [`ExecError::LoadShed`] while the waiting queue is
//! at its configured depth cap). A job that can never be placed, even
//! on an idle cloud, is rejected with [`ExecError::Unplaceable`].

use crate::error::{ExecError, PlacementError};
use crate::exec::{AllocStats, Executor};
use crate::placement::PlacementCache;
use crate::runtime::admission::QueueContext;
use crate::runtime::report::JobRecord;
use crate::runtime::service::RuntimeConfig;
use crate::workload::WorkloadJob;
use cloudqc_circuit::{Circuit, Fingerprint};
use cloudqc_cloud::CloudStatus;
use cloudqc_sim::online::OnlineReport;
use cloudqc_sim::series::{BatchStats, LatencyBreakdown};
use cloudqc_sim::Tick;

/// One injected job, in the engine's era-local frame.
struct EngineJob {
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

/// The resident event loop of one era: executor, capacity ledger,
/// admission queue, and the stream tail, advanced on demand.
pub(crate) struct Engine<'a> {
    cfg: RuntimeConfig<'a>,
    /// Lifetime tick at which this era's local clock 0 sits.
    clock_base: u64,
    status: CloudStatus,
    exec: Executor<'a>,
    ctx: QueueContext,
    jobs: Vec<EngineJob>,
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
    /// Completions recorded since the last [`Engine::take_window`].
    outcomes: Vec<JobRecord>,
    /// Rejections recorded since the last [`Engine::take_window`].
    rejections: Vec<(usize, ExecError)>,
    /// Work counters of executors retired by past re-anchors.
    retired_allocation: AllocStats,
    retired_batches: BatchStats,
    retired_preemptions: u64,
    /// Reused buffer threaded through the executor's `run_*_into`
    /// advances, so draining finished jobs allocates nothing per call.
    finished_scratch: Vec<usize>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(cfg: RuntimeConfig<'a>, clock_base: u64) -> Self {
        Engine {
            status: cfg.cloud.status(),
            exec: Self::fresh_exec(&cfg),
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
            clock_base,
        }
    }

    fn fresh_exec(cfg: &RuntimeConfig<'a>) -> Executor<'a> {
        Executor::new(cfg.cloud, cfg.scheduler, cfg.seed)
            .with_path_reservation(cfg.path_reservation)
    }

    /// The engine's clock on the service lifetime frame.
    pub(crate) fn now(&self) -> Tick {
        Tick::new(self.clock_base + self.exec.now().as_ticks())
    }

    fn shift(&self, t: Tick) -> Tick {
        Tick::new(self.clock_base + t.as_ticks())
    }

    /// Nothing in flight, nothing waiting, nothing still to arrive.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.next_arrival >= self.upcoming.len()
            && self.waiting.is_empty()
            && self.exec.unfinished_jobs() == 0
            && self.exec.next_event_time().is_none()
    }

    /// Arrived jobs currently waiting for admission.
    pub(crate) fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// Jobs admitted and not yet finished.
    pub(crate) fn in_flight(&self) -> usize {
        self.exec.unfinished_jobs()
    }

    /// Lifetime allocation-pass counters (retired eras + the live
    /// executor).
    pub(crate) fn allocation(&self) -> AllocStats {
        let mut a = self.retired_allocation;
        a.merge(self.exec.alloc_stats());
        a
    }

    /// Lifetime event-batch distribution (retired eras + the live
    /// executor).
    pub(crate) fn event_batches(&self) -> BatchStats {
        let mut b = self.retired_batches.clone();
        b.merge(self.exec.batch_stats());
        b
    }

    /// Lifetime job suspensions performed by the preemption policy.
    pub(crate) fn preemptions(&self) -> u64 {
        self.retired_preemptions + self.exec.preemptions()
    }

    /// The allocation-pass counters and event-batch distribution of the
    /// current era alone (the live executor).
    pub(crate) fn era_stats(&self) -> (AllocStats, BatchStats) {
        (self.exec.alloc_stats(), self.exec.batch_stats().clone())
    }

    /// The circuits of this era's jobs, in injection order.
    #[cfg(test)]
    pub(crate) fn circuits(&self) -> impl Iterator<Item = &Circuit> {
        self.jobs.iter().map(|job| &job.circuit)
    }

    /// Free computing qubits per QPU right now.
    pub(crate) fn free_computing(&self) -> Vec<usize> {
        (0..self.cfg.cloud.qpu_count())
            .map(|i| self.status.free_computing(cloudqc_cloud::QpuId::new(i)))
            .collect()
    }

    /// Free communication qubits per QPU right now.
    pub(crate) fn comm_free(&self) -> &[usize] {
        self.exec.comm_free()
    }

    /// The live free-capacity ledger (what admission places against).
    pub(crate) fn status(&self) -> &CloudStatus {
        &self.status
    }

    /// Drains the era for a backend failure: suspends every in-flight
    /// job through the preemption machinery (parked remote gates return
    /// their communication pairs to the fabric) and returns the record
    /// indices of *all* unfinished work — in-flight, waiting, and
    /// not-yet-arrived — so the caller can re-submit it elsewhere. The
    /// engine then starts a fresh, empty era at the current lifetime
    /// tick.
    ///
    /// Partial progress is lost by design (restart-from-scratch
    /// failover: placements are not migratable across clouds), but no
    /// job is lost — everything unfinished is returned exactly once.
    pub(crate) fn evacuate(&mut self) -> Vec<usize> {
        debug_assert!(
            self.outcomes.is_empty() && self.rejections.is_empty(),
            "take_window before evacuating"
        );
        let mut evacuated = Vec::new();
        for id in 0..self.admitted.len() {
            if self.exec.job_result(id).is_none() {
                self.exec.suspend_job(id);
                evacuated.push(self.jobs[self.admitted[id].job].record_index);
            }
        }
        evacuated.extend(self.waiting.iter().map(|&id| self.jobs[id].record_index));
        evacuated.extend(
            self.upcoming[self.next_arrival..]
                .iter()
                .map(|&id| self.jobs[id].record_index),
        );
        evacuated.sort_unstable();
        self.reanchor();
        evacuated
    }

    /// Drains the completions and rejections recorded since the last
    /// call (completions in completion order).
    pub(crate) fn take_window(&mut self) -> (Vec<JobRecord>, Vec<(usize, ExecError)>) {
        (
            std::mem::take(&mut self.outcomes),
            std::mem::take(&mut self.rejections),
        )
    }

    /// Lands a submission batch on the engine. `first_record_index`
    /// numbers the batch's jobs by lifetime submission index.
    ///
    /// Injecting onto a *quiescent* engine re-anchors it first (see the
    /// module docs). Arrivals are lifetime ticks and are converted to
    /// the era-local frame (past arrivals land immediately).
    pub(crate) fn inject(&mut self, jobs: Vec<WorkloadJob>, first_record_index: usize) {
        if jobs.is_empty() {
            return;
        }
        if !self.jobs.is_empty() && self.is_quiescent() {
            self.reanchor();
        }
        // The queue context is extended in the lifetime frame — every
        // metric is either time-free or uniformly shifted, so queue
        // *order* is the same as in the era-local frame.
        self.cfg
            .admission
            .extend(&mut self.ctx, &jobs, self.cfg.cloud);
        let base = self.jobs.len();
        for (offset, job) in jobs.into_iter().enumerate() {
            let arrival = Tick::new(job.arrival.as_ticks().saturating_sub(self.clock_base));
            self.jobs.push(EngineJob {
                circuit: job.circuit,
                arrival,
                critical: job.deadline.is_some(),
                record_index: first_record_index + offset,
            });
            self.upcoming.push(base + offset);
        }
        // Keep the not-yet-enqueued tail sorted by (arrival, id); ids
        // ascend within each injected batch, so the stable sort keeps
        // equal-arrival jobs in submission order.
        self.upcoming[self.next_arrival..].sort_by_key(|&id| (self.jobs[id].arrival, id));
        self.admission_dirty = true;
    }

    /// Starts a fresh, empty era: the elapsed era folds into the clock
    /// base and the executor, ledger, and admission context are rebuilt
    /// exactly as a new service would build them.
    fn reanchor(&mut self) {
        self.retired_allocation.merge(self.exec.alloc_stats());
        self.retired_batches.merge(self.exec.batch_stats());
        self.retired_preemptions += self.exec.preemptions();
        self.clock_base += self.exec.now().as_ticks();
        self.exec = Self::fresh_exec(&self.cfg);
        self.status = self.cfg.cloud.status();
        self.ctx = QueueContext::empty();
        self.jobs.clear();
        self.upcoming.clear();
        self.next_arrival = 0;
        self.waiting.clear();
        self.admitted.clear();
        self.critical_running = 0;
    }

    /// Advances the engine until quiescent or, when `deadline` (a
    /// *lifetime* tick) is given, until the clock reaches it.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoFeasiblePlacement`] only when jobs are in
    /// flight, none can run, and no suspension is left to lift — an
    /// engine bug, not a property of the workload. A job that can never
    /// be placed is rejected with [`ExecError::Unplaceable`] instead.
    pub(crate) fn advance(
        &mut self,
        online: &mut OnlineReport,
        cache: &mut Option<PlacementCache>,
        deadline: Option<Tick>,
    ) -> Result<(), PlacementError> {
        let deadline = deadline.map(|d| Tick::new(d.as_ticks().saturating_sub(self.clock_base)));
        loop {
            self.admit(online, cache);

            // An arrival inside the budget: advance to it (recording
            // completions along the way) and enqueue the whole batch
            // arriving at that instant.
            if let Some(&id) = self.upcoming.get(self.next_arrival) {
                let arrival = self.jobs[id].arrival;
                if deadline.is_none_or(|d| arrival <= d) {
                    let mut finished = std::mem::take(&mut self.finished_scratch);
                    self.exec.run_until_into(arrival, &mut finished);
                    self.record_finished(online, &finished);
                    self.finished_scratch = finished;
                    while self.next_arrival < self.upcoming.len()
                        && self.jobs[self.upcoming[self.next_arrival]].arrival <= arrival
                    {
                        let idx = self.upcoming[self.next_arrival];
                        self.enqueue(online, idx);
                        self.next_arrival += 1;
                    }
                    continue;
                }
            }

            if self.exec.unfinished_jobs() > 0 {
                match deadline {
                    None => {
                        let mut finished = std::mem::take(&mut self.finished_scratch);
                        self.exec.run_until_next_completion_into(&mut finished);
                        if finished.is_empty() {
                            self.finished_scratch = finished;
                            // In-flight jobs but no future events: every
                            // runnable job is suspended (the last
                            // critical job was rejected or never
                            // admitted). Resume and retry.
                            if self.resume_all() {
                                self.admission_dirty = true;
                                continue;
                            }
                            return Err(PlacementError::NoFeasiblePlacement);
                        }
                        self.record_finished(online, &finished);
                        self.finished_scratch = finished;
                    }
                    Some(d) => {
                        let exhausted = self.exec.next_event_time().is_none_or(|t| t > d);
                        let mut finished = std::mem::take(&mut self.finished_scratch);
                        self.exec.run_until_into(d, &mut finished);
                        let progressed = !finished.is_empty();
                        self.record_finished(online, &finished);
                        self.finished_scratch = finished;
                        if exhausted && !progressed {
                            // Nothing more can happen inside the
                            // budget; the clock is parked at the
                            // deadline.
                            return Ok(());
                        }
                    }
                }
            } else {
                // Gate-less circuits finish inside try_add_job without
                // raising unfinished_jobs; drain them before deciding
                // the era is quiescent (run_until_next_completion
                // returns the buffered completions without stepping).
                let mut finished = std::mem::take(&mut self.finished_scratch);
                self.exec.run_until_next_completion_into(&mut finished);
                if !finished.is_empty() {
                    self.record_finished(online, &finished);
                    self.finished_scratch = finished;
                    continue;
                }
                self.finished_scratch = finished;
                if self.waiting.is_empty() {
                    // Quiescent up to the budget (any remaining
                    // arrivals are beyond the deadline); park the idle
                    // clock at the deadline so `drive_until(t)` always
                    // ends at `t`.
                    if let Some(d) = deadline {
                        if self.exec.now() < d {
                            let mut late = std::mem::take(&mut self.finished_scratch);
                            self.exec.run_until_into(d, &mut late);
                            debug_assert!(late.is_empty());
                            self.finished_scratch = late;
                        }
                    }
                    return Ok(());
                }
                // Idle executor, nothing arriving inside the budget,
                // jobs still waiting: they failed placement against the
                // fully free cloud and never will fit.
                let stuck = std::mem::take(&mut self.waiting);
                for job_idx in stuck {
                    self.rejections.push((
                        self.jobs[job_idx].record_index,
                        ExecError::Unplaceable(PlacementError::NoFeasiblePlacement),
                    ));
                    online.record_rejection(self.now());
                }
            }
        }
    }

    /// One admission pass: age the queue, prune expired SLAs, place and
    /// start everything the policy and free capacity allow. Skipped
    /// unless something changed since the last pass — retrying against
    /// unchanged state cannot admit anything new.
    ///
    /// With the placement cache on, the pass looks up each failing
    /// fingerprint once: the fingerprint fixes the seed, so under one
    /// free vector it is the whole cache key. An admission is the only
    /// ledger change inside a pass, so until the next one a later
    /// waiter with that fingerprint would hit the failure the first
    /// lookup memoized: it waits without a lookup. Across passes, the
    /// cache's failure entries answer the repeats. An uncached run
    /// looks up every waiter and stays the reference a cached run must
    /// reproduce.
    fn admit(&mut self, online: &mut OnlineReport, cache: &mut Option<PlacementCache>) {
        if !self.admission_dirty {
            return;
        }
        self.admission_dirty = false;
        self.age_queue();
        // Fingerprints that could not fit since the pass's last
        // admission.
        let mut failed: Vec<Fingerprint> = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            let job_idx = self.waiting[i];
            // SLA admission control: prune jobs whose deadline can no
            // longer be met instead of retrying them forever.
            let now = self.now();
            if let Some(deadline) = self.cfg.admission.sla_violation(&self.ctx, job_idx, now) {
                self.rejections.push((
                    self.jobs[job_idx].record_index,
                    ExecError::SlaExpired { deadline, now },
                ));
                online.record_rejection(now);
                self.waiting.remove(i);
                continue;
            }
            let fingerprint = self.jobs[job_idx].circuit.fingerprint();
            if cache.is_some() && failed.contains(&fingerprint) {
                i += 1;
                continue;
            }
            let placed = self
                .cfg
                .place(cache.as_mut(), &self.jobs[job_idx].circuit, &self.status);
            match placed {
                Ok(p) => {
                    let demand = p.qpu_demand(self.cfg.cloud.qpu_count());
                    match self.exec.try_add_job(&self.jobs[job_idx].circuit, &p) {
                        Ok(exec_id) => {
                            self.status
                                .allocate_all_computing(&demand)
                                .expect("placement.fits was checked by the algorithm");
                            failed.clear();
                            debug_assert_eq!(exec_id, self.admitted.len());
                            let critical = self.jobs[job_idx].critical;
                            self.admitted.push(Admitted {
                                job: job_idx,
                                demand,
                                critical,
                            });
                            self.waiting.remove(i);
                            if critical {
                                self.critical_running += 1;
                                if self.cfg.preemption {
                                    self.suspend_noncritical();
                                }
                            }
                        }
                        Err(e) => {
                            // The placement can never execute: reject
                            // the job, keep the run going.
                            self.rejections.push((self.jobs[job_idx].record_index, e));
                            online.record_rejection(self.now());
                            self.waiting.remove(i);
                        }
                    }
                }
                Err(PlacementError::InsufficientCapacity { required, .. })
                    if required > self.cfg.cloud.total_computing_capacity() =>
                {
                    // Impossible even on an idle cloud: reject the job
                    // and keep the run going.
                    let err = PlacementError::InsufficientCapacity {
                        required,
                        available: self.cfg.cloud.total_computing_capacity(),
                    };
                    self.rejections
                        .push((self.jobs[job_idx].record_index, ExecError::Unplaceable(err)));
                    online.record_rejection(self.now());
                    self.waiting.remove(i);
                }
                Err(_) => {
                    // Cannot fit now: wait. Under FCFS the head blocks
                    // the queue; otherwise later jobs may backfill.
                    if self.cfg.admission.head_of_line_blocks() {
                        break;
                    }
                    if cache.is_some() {
                        failed.push(fingerprint);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Re-sorts the waiting queue by metric + `aging_rate` × queueing
    /// time (era-local), so starvation-prone policies (SJF, EDF)
    /// eventually serve every waiter. A no-op at the default rate 0 or
    /// under arrival-ordered policies.
    fn age_queue(&mut self) {
        if self.cfg.aging_rate <= 0.0 || self.waiting.len() < 2 {
            return;
        }
        let Some(metrics) = self.ctx.metrics() else {
            return;
        };
        let rate = self.cfg.aging_rate;
        let now = self.exec.now();
        let jobs = &self.jobs;
        let aged = |id: usize| metrics[id] + rate * (now - jobs[id].arrival) as f64;
        self.waiting.sort_by(|&a, &b| {
            aged(b)
                .partial_cmp(&aged(a))
                .expect("finite queue metrics")
                .then(a.cmp(&b))
        });
    }

    /// Admits one arrival into the waiting queue — or sheds it at the
    /// door when the waiting queue is at the load-shedding depth cap.
    fn enqueue(&mut self, online: &mut OnlineReport, job_idx: usize) {
        if let Some(shed) = self.cfg.load_shed {
            if shed.should_shed(self.waiting.len()) {
                self.rejections.push((
                    self.jobs[job_idx].record_index,
                    ExecError::LoadShed {
                        queue_depth: self.waiting.len(),
                    },
                ));
                online.record_rejection(self.now());
                return;
            }
        }
        self.cfg
            .admission
            .enqueue(&mut self.waiting, job_idx, self.ctx.metrics());
        self.admission_dirty = true;
    }

    /// Suspends every running non-critical job (their parked remote
    /// gates return communication pairs to the fabric; computing qubits
    /// stay held — placements are not migratable).
    fn suspend_noncritical(&mut self) {
        for id in 0..self.admitted.len() {
            if !self.admitted[id].critical {
                self.exec.suspend_job(id);
            }
        }
    }

    /// Resumes every suspended job; true if any was suspended.
    fn resume_all(&mut self) -> bool {
        let mut any = false;
        for id in 0..self.admitted.len() {
            any |= self.exec.resume_job(id);
        }
        any
    }

    /// Folds a batch of finished executor jobs into the ledger, the
    /// streaming report, and the window buffer; resumes suspended jobs
    /// once the last critical job completes.
    fn record_finished(&mut self, online: &mut OnlineReport, finished: &[usize]) {
        if finished.is_empty() {
            return;
        }
        self.admission_dirty = true;
        let mut critical_done = 0;
        for &exec_id in finished {
            let Admitted {
                job,
                demand,
                critical,
            } = &self.admitted[exec_id];
            self.status.release_all_computing(demand);
            if *critical {
                critical_done += 1;
            }
            let result = self.exec.job_result(exec_id).expect("job finished");
            let arrived = self.jobs[*job].arrival;
            let queueing = result.started_at - arrived;
            let service = result.finished_at - result.started_at;
            let breakdown =
                LatencyBreakdown::new(queueing, result.epr_wait, service - result.epr_wait);
            let completion_time = Tick::new(result.finished_at - arrived);
            let finished_at = self.shift(result.finished_at);
            online.record_completion(completion_time, breakdown, finished_at);
            self.outcomes.push(JobRecord {
                job: self.jobs[*job].record_index,
                arrived_at: self.shift(arrived),
                admitted_at: self.shift(result.started_at),
                finished_at,
                completion_time,
                remote_gates: result.remote_gates,
                epr_rounds: result.epr_rounds,
                qubits: demand.iter().sum(),
                breakdown,
            });
        }
        if critical_done > 0 {
            self.critical_running -= critical_done;
            if self.critical_running == 0 && self.cfg.preemption {
                self.resume_all();
            }
        }
    }
}
