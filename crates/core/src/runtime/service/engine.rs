//! The event loop of a [`Service`]: injection, the advance loop,
//! admission, and the policy tier, as private methods that read the
//! service's configuration, placement cache, and streaming report in
//! place.
//!
//! The loop advances one *era* of simulation: the executor (with its
//! event queue and RNG), the cloud's free-capacity ledger, the
//! admission queue context, the jobs injected so far, and the
//! not-yet-arrived tail of the stream, all fields of the service.
//! Submissions land on the live executor mid-flight
//! ([`Service::inject`]), and [`Service::run`] advances until quiescent
//! or until a lifetime-tick budget.
//!
//! Every tick the loop reports is on the service's *lifetime* clock
//! (`clock_base + era-local`): job records, rejection payloads, and the
//! streaming [`OnlineReport`](cloudqc_sim::online::OnlineReport).
//! Multi-epoch throughput and last-finish series are therefore monotone
//! instead of piling up at tick 0. An epoch ([`Service::drive`]) is a
//! drive to quiescence whose records the service restamps into the
//! epoch frame afterwards.
//!
//! # Re-anchoring, and why an epoch is a drive to quiescence
//!
//! When the service is fully quiescent (no waiting jobs, no in-flight
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
//! The loop also hosts the scheduler policies that only make sense on
//! a live queue: **preemption** (admitting an SLA-critical job suspends
//! every running non-critical job's remote gates, returning their
//! communication pairs to the fabric until no critical job remains)
//! and **load shedding** (arrivals are turned away with
//! [`ExecError::LoadShed`] while the waiting queue is at its configured
//! depth cap). A job that can never be placed, even on an idle cloud,
//! is rejected with [`ExecError::Unplaceable`].

use super::{Admitted, EraJob, Service};
use crate::error::{ExecError, PlacementError};
use crate::exec::Executor;
use crate::runtime::admission::QueueContext;
use crate::runtime::report::JobRecord;
use crate::runtime::ServiceBuilder;
use cloudqc_circuit::Fingerprint;
use cloudqc_sim::series::LatencyBreakdown;
use cloudqc_sim::Tick;

/// A fresh executor for a new era of `cfg`.
pub(super) fn fresh_executor<'a>(cfg: &ServiceBuilder<'a>) -> Executor<'a> {
    Executor::new(cfg.cloud, cfg.scheduler, cfg.seed).with_path_reservation(cfg.path_reservation)
}

impl Service<'_> {
    /// An era-local tick on the service's lifetime clock.
    pub(super) fn shift(&self, t: Tick) -> Tick {
        Tick::new(self.clock_base + t.as_ticks())
    }

    /// Nothing in flight, nothing waiting, nothing still to arrive.
    pub(super) fn is_quiescent(&self) -> bool {
        self.next_arrival >= self.upcoming.len()
            && self.waiting.is_empty()
            && self.exec.unfinished_jobs() == 0
            && self.exec.next_event_time().is_none()
    }

    /// Lands the pending buffer on the live era, numbering its jobs by
    /// lifetime submission index.
    ///
    /// Injecting onto a *quiescent* service re-anchors it first (see
    /// the module docs). Arrivals are lifetime ticks and are converted
    /// to the era-local frame (past arrivals land immediately).
    pub(super) fn inject(&mut self) {
        if self.pending.is_empty() {
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
            .extend(&mut self.ctx, &self.pending, self.cfg.cloud);
        let base = self.jobs.len();
        for (offset, job) in self.pending.drain(..).enumerate() {
            let arrival = Tick::new(job.arrival.as_ticks().saturating_sub(self.clock_base));
            self.jobs.push(EraJob {
                circuit: job.circuit,
                arrival,
                critical: job.deadline.is_some(),
                record_index: self.injected + offset,
            });
            self.upcoming.push(base + offset);
        }
        self.injected += self.jobs.len() - base;
        // Keep the not-yet-enqueued tail sorted by (arrival, id); ids
        // ascend within each injected batch, so the stable sort keeps
        // equal-arrival jobs in submission order.
        self.upcoming[self.next_arrival..].sort_by_key(|&id| (self.jobs[id].arrival, id));
        self.admission_dirty = true;
    }

    /// Starts a fresh, empty era: the elapsed era folds into the clock
    /// base and the executor, ledger, and admission context are rebuilt
    /// exactly as a new service would build them.
    pub(super) fn reanchor(&mut self) {
        self.retired_allocation.merge(self.exec.alloc_stats());
        self.retired_batches.merge(self.exec.batch_stats());
        self.retired_preemptions += self.exec.preemptions();
        self.clock_base += self.exec.now().as_ticks();
        self.exec = fresh_executor(&self.cfg);
        self.status = self.cfg.cloud.status();
        self.ctx = QueueContext::empty();
        self.jobs.clear();
        self.upcoming.clear();
        self.next_arrival = 0;
        self.waiting.clear();
        self.admitted.clear();
        self.critical_running = 0;
    }

    /// Advances the loop until quiescent or, when `deadline` (a
    /// *lifetime* tick) is given, until the clock reaches it.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoFeasiblePlacement`] only when jobs are in
    /// flight, none can run, and no suspension is left to lift — a
    /// loop bug, not a property of the workload. A job that can never
    /// be placed is rejected with [`ExecError::Unplaceable`] instead.
    pub(super) fn run(&mut self, deadline: Option<Tick>) -> Result<(), PlacementError> {
        let deadline = deadline.map(|d| Tick::new(d.as_ticks().saturating_sub(self.clock_base)));
        loop {
            self.admit();

            // An arrival inside the budget: advance to it (recording
            // completions along the way) and enqueue the whole batch
            // arriving at that instant.
            if let Some(&id) = self.upcoming.get(self.next_arrival) {
                let arrival = self.jobs[id].arrival;
                if deadline.is_none_or(|d| arrival <= d) {
                    self.run_exec(Some(arrival));
                    while self.next_arrival < self.upcoming.len()
                        && self.jobs[self.upcoming[self.next_arrival]].arrival <= arrival
                    {
                        self.enqueue(self.upcoming[self.next_arrival]);
                        self.next_arrival += 1;
                    }
                    continue;
                }
            }

            if self.exec.unfinished_jobs() > 0 {
                match deadline {
                    None => {
                        if self.run_exec(None) == 0 {
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
                    }
                    Some(d) => {
                        let exhausted = self.exec.next_event_time().is_none_or(|t| t > d);
                        if self.run_exec(Some(d)) == 0 && exhausted {
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
                if self.run_exec(None) > 0 {
                    continue;
                }
                if self.waiting.is_empty() {
                    // Quiescent up to the budget (any remaining
                    // arrivals are beyond the deadline); park the idle
                    // clock at the deadline so `drive_until(t)` always
                    // ends at `t`.
                    if let Some(d) = deadline {
                        let late = self.run_exec(Some(d));
                        debug_assert_eq!(late, 0);
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
                    self.online.record_rejection();
                }
            }
        }
    }

    /// Advances the executor to the era-local tick `until`, or to its
    /// next completion when `None`, and records the jobs that finished;
    /// returns how many did.
    fn run_exec(&mut self, until: Option<Tick>) -> usize {
        let mut finished = std::mem::take(&mut self.finished_scratch);
        match until {
            Some(t) => self.exec.run_until(t, &mut finished),
            None => self.exec.run_until_next_completion(&mut finished),
        }
        self.record_finished(&finished);
        let count = finished.len();
        self.finished_scratch = finished;
        count
    }

    /// One admission pass: prune expired SLAs, place and start
    /// everything the policy and free capacity allow. Skipped unless
    /// something changed since the last pass — retrying against
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
    fn admit(&mut self) {
        if !self.admission_dirty {
            return;
        }
        self.admission_dirty = false;
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
                self.online.record_rejection();
                self.waiting.remove(i);
                continue;
            }
            let fingerprint = self.jobs[job_idx].circuit.fingerprint();
            if self.cache.is_some() && failed.contains(&fingerprint) {
                i += 1;
                continue;
            }
            let placed = self.cfg.place(
                self.cache.as_mut(),
                &self.jobs[job_idx].circuit,
                &self.status,
            );
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
                            self.online.record_rejection();
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
                    self.online.record_rejection();
                    self.waiting.remove(i);
                }
                Err(_) => {
                    // Cannot fit now: wait. Under FCFS the head blocks
                    // the queue; otherwise later jobs may backfill.
                    if self.cfg.admission.head_of_line_blocks() {
                        break;
                    }
                    if self.cache.is_some() {
                        failed.push(fingerprint);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Admits one arrival into the waiting queue — or sheds it at the
    /// door when the waiting queue is at the load-shedding depth cap.
    fn enqueue(&mut self, job_idx: usize) {
        if let Some(shed) = self.cfg.load_shed {
            if shed.should_shed(self.waiting.len()) {
                self.rejections.push((
                    self.jobs[job_idx].record_index,
                    ExecError::LoadShed {
                        queue_depth: self.waiting.len(),
                    },
                ));
                self.online.record_rejection();
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
    fn record_finished(&mut self, finished: &[usize]) {
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
            self.online
                .record_completion(completion_time, breakdown, finished_at);
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
