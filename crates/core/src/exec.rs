//! Discrete-event execution of placed circuits.
//!
//! This is the reproduction of the paper's "customized discrete-event
//! simulator" (§VI.A), generalized to *multiple concurrent jobs* so the
//! multi-tenant experiments (§VI.D) share communication resources the
//! way the paper's network scheduler assumes:
//!
//! * Local gates run as soon as their DAG predecessors finish, paying
//!   Table I latencies.
//! * Remote gates enter the network scheduler's front layer; each
//!   allocation round costs one EPR-attempt latency and succeeds
//!   per hop with probability `1-(1-p)^pairs`; pairs are returned at
//!   round end and re-allocated (priorities shift as the DAG drains).
//! * A remote gate whose links are all entangled executes and pays the
//!   cat-entangler completion latency (local CX + measure + correction).
//!
//! Determinism: one seeded RNG drives EPR outcomes; events tie-break in
//! FIFO order; scheduler inputs are sorted.
//!
//! # Job state
//!
//! Admission builds each job's *plan* in one forward and one reverse
//! pass over its gates, without a gate DAG. Per gate, the plan holds
//! its at most two successors (the next gate on each operand, in
//! ascending order), a pending-predecessor count and its remote-node
//! index. Per remote gate, it holds the endpoints, the hops still to
//! entangle and the priority: the longest chain of remote gates below
//! the gate, which is the paper's longest path to a leaf of the remote
//! DAG (§V.C). Dispatching and completing a gate are O(1). A differential
//! proptest checks the plan against the public reference model:
//! [`gate_dag`](cloudqc_circuit::dag::gate_dag),
//! [`FrontTracker`](cloudqc_circuit::dag::FrontTracker),
//! [`RemoteDag`](crate::schedule::RemoteDag) and
//! [`priorities`](crate::schedule::priority::priorities).
//!
//! When a job finishes, its plan and every per-gate and per-node vector
//! are freed. Only the scalars [`Executor::job_result`] reads stay
//! resident, so a finished job keeps a fixed-size record whatever its
//! circuit's size.
//!
//! # Hot path
//!
//! The allocation front layer is one request vector, maintained
//! *incrementally*: it holds one [`RemoteRequest`] per pending remote
//! gate, sorted by priority descending then key ascending (the order
//! the priority-aware schedulers sort into, so their sorts hit the
//! pre-sorted fast path), and is updated when a gate enters or leaves
//! the front layer instead of being rebuilt from every job's pending
//! list on every event round. Routes and swapping-station indices are
//! resolved once at admission and cached per remote gate; the
//! path-reservation filter reuses one scratch buffer across rounds.
//!
//! Events are processed in *same-tick batches*: every advance
//! ([`Executor::run_until`], [`Executor::run_until_next_completion`],
//! [`Executor::run_to_completion`]) steps one event tick at a time,
//! draining every event sharing the head timestamp, applying them in
//! one round, and only then running a single allocation pass — one
//! front-layer update per tick instead of per event. On top of that, allocation
//! rounds are *change-driven*: when the scheduler is pure
//! ([`Scheduler::is_pure`]) and neither the front layer nor any QPU's
//! free communication qubits changed since a round that granted
//! nothing, the pass is elided outright — re-running a pure scheduler
//! on identical inputs would provably grant nothing again. Ticks whose
//! batch contains only local-gate completions therefore skip the
//! scheduler entirely. Non-pure schedulers
//! ([`crate::schedule::RandomScheduler`], whose elided calls would
//! shift its RNG stream) run a pass at every event tick. Batching and
//! elision both leave seeded schedules byte identical:
//! `tests/runtime_golden.rs` pins this and `tests/properties.rs`
//! property-tests it, both against a scheduler wrapper that reports
//! itself impure and so is never elided. The per-tick batch-size
//! distribution is tracked in [`Executor::batch_stats`], and per-run
//! pass and request counters in [`Executor::alloc_stats`] (surfaced in
//! [`crate::runtime::RunReport`]).
//!
//! One vector is enough because fronts stay shallow: on the
//! benchmark's workloads the whole layer peaks at a few dozen
//! requests, so a pass over all of it is cheap.

use crate::error::ExecError;
use crate::placement::Placement;
use crate::schedule::{validate_allocations, RemoteRequest, Scheduler};
use cloudqc_circuit::{Circuit, GateKind};
use cloudqc_cloud::{Cloud, QpuId};
use cloudqc_sim::{BatchStats, EventQueue, SimRng, Tick};
use rand::rngs::StdRng;

/// Outcome of one job's execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// When the job was admitted to the executor.
    pub started_at: Tick,
    /// When its last gate finished.
    pub finished_at: Tick,
    /// Job completion time (`finished_at - started_at`), in ticks.
    pub completion_time: Tick,
    /// Number of remote gates the placement induced.
    pub remote_gates: usize,
    /// Total EPR generation rounds spent across all remote gates.
    pub epr_rounds: u64,
    /// Ticks of the service time during which the job had at least one
    /// EPR generation round in flight — the entanglement-wait share of
    /// the latency breakdown.
    pub epr_wait: u64,
}

/// Per-run allocation-pass counters (surfaced in
/// [`crate::runtime::RunReport`]): how much front-layer work the
/// scheduler actually did. Each pass hands the scheduler the whole
/// front layer (under path reservation, the requests whose swapping
/// stations all have a free communication qubit).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation passes that actually invoked the scheduler (elided
    /// and empty-front passes are not counted).
    pub rounds: u64,
    /// Requests handed to the scheduler, summed over all rounds.
    pub requests_scanned: u64,
}

impl AllocStats {
    /// Mean requests scanned per allocation round (0 for no rounds).
    pub fn mean_scan(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.requests_scanned as f64 / self.rounds as f64
    }

    /// Folds another counter set into this one — how a long-lived
    /// service accumulates per-epoch executor stats into lifetime
    /// totals.
    pub fn merge(&mut self, other: AllocStats) {
        self.rounds += other.rounds;
        self.requests_scanned += other.requests_scanned;
    }
}

#[derive(Debug)]
enum Event {
    /// A (local or completed-remote) gate finished.
    GateDone { job: usize, gate: usize },
    /// An EPR round for a remote gate elapsed.
    RoundDone {
        job: usize,
        node: usize,
        pairs: usize,
    },
}

/// Pads [`PlanGate::succ`] and marks a local gate's [`PlanGate::node`].
const NONE: u32 = u32::MAX;

/// [`PlanGate::pending`] of a completed gate.
const DONE: u32 = u32::MAX;

/// One gate of a [`JobPlan`].
#[derive(Clone, Copy)]
struct PlanGate {
    /// The gate-DAG successors: the next gate on each operand,
    /// deduplicated, ascending and padded with [`NONE`]. A gate acts on
    /// at most two qubits, so it has at most two.
    succ: [u32; 2],
    /// Predecessors not yet completed, or [`DONE`].
    pending: u32,
    /// The gate's remote-node index, or [`NONE`] for a local gate.
    node: u32,
    /// Table I latency of the gate run locally.
    latency: u64,
}

/// One remote gate of a [`JobPlan`]: a node of the remote DAG.
#[derive(Clone, Copy)]
struct PlanNode {
    gate: u32,
    a: QpuId,
    b: QpuId,
    /// Hops not yet entangled, starting at the route's hop count; every
    /// such hop attempts in each round, and a success is banked
    /// (entanglement memory).
    remaining_hops: u32,
    /// The most remote gates on any gate-DAG path below this one.
    priority: u32,
}

/// A job's gate DAG, remote DAG and remote-gate priorities in flat
/// form, plus its progress through them (see the module docs).
#[derive(Default)]
struct JobPlan {
    gates: Vec<PlanGate>,
    /// Remote gates in gate order, so node indices match
    /// [`RemoteDag`](crate::schedule::RemoteDag)'s.
    nodes: Vec<PlanNode>,
    /// Gates not yet completed.
    remaining: usize,
}

impl JobPlan {
    /// Builds the plan of `circuit` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is narrower than the circuit, or the
    /// circuit has `u32::MAX` gates or more.
    fn new(circuit: &Circuit, placement: &Placement, cloud: &Cloud) -> Self {
        assert!(
            placement.num_qubits() >= circuit.num_qubits(),
            "placement narrower than circuit"
        );
        let latency = cloud.latency();
        let mut gates: Vec<PlanGate> = Vec::with_capacity(circuit.gate_count());
        let mut nodes = Vec::new();
        // Forward pass: link each gate after the last gate on each of
        // its operands. Gate indices only grow, so every successor list
        // stays ascending; a repeated pair reaches the same predecessor
        // through both operands, and counts once.
        let mut last = vec![NONE; circuit.num_qubits()];
        for (i, gate) in circuit.gates().iter().enumerate() {
            let id = u32::try_from(i)
                .ok()
                .filter(|&id| id != NONE)
                .expect("fewer than u32::MAX gates");
            let mut pending = 0;
            for q in [Some(gate.qubit0()), gate.qubit1()].into_iter().flatten() {
                let prev = std::mem::replace(&mut last[q.index()], id);
                if prev == NONE {
                    continue;
                }
                let succ = &mut gates[prev as usize].succ;
                if !succ.contains(&id) {
                    let free = if succ[0] == NONE { 0 } else { 1 };
                    succ[free] = id;
                    pending += 1;
                }
            }
            let mut node = NONE;
            if let Some((qa, qb)) = gate.qubit_pair() {
                let (a, b) = (placement.qpu_of(qa.index()), placement.qpu_of(qb.index()));
                if a != b {
                    node = u32::try_from(nodes.len()).expect("remote gate count fits in u32");
                    nodes.push(PlanNode {
                        gate: id,
                        a,
                        b,
                        remaining_hops: cloud.distance_or_max(a, b).max(1),
                        priority: 0,
                    });
                }
            }
            gates.push(PlanGate {
                succ: [NONE; 2],
                pending,
                node,
                latency: match gate.kind() {
                    GateKind::Measure => latency.measure(),
                    k if k.is_two_qubit() => latency.two_qubit(),
                    _ => latency.single_qubit(),
                },
            });
        }
        // Reverse pass: `depth[g]` is the most remote gates on any path
        // below `g`. A path through k remote gates below a remote node
        // is a k-edge path of the projected remote DAG and back, so a
        // node's depth is its longest path to a leaf there.
        let mut depth = vec![0u32; gates.len()];
        for g in (0..gates.len()).rev() {
            let gate = gates[g];
            for s in gate.succ.into_iter().filter(|&s| s != NONE) {
                let s = s as usize;
                let below = depth[s] + u32::from(gates[s].node != NONE);
                depth[g] = depth[g].max(below);
            }
            if gate.node != NONE {
                nodes[gate.node as usize].priority = depth[g];
            }
        }
        JobPlan {
            remaining: gates.len(),
            gates,
            nodes,
        }
    }

    /// Gates with no predecessors, ascending: the initial front layer.
    fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.gates.len()).filter(|&g| self.gates[g].pending == 0)
    }

    /// The remote-node index of `gate`, or `None` for a local gate.
    fn node_of_gate(&self, gate: usize) -> Option<usize> {
        let node = self.gates[gate].node;
        (node != NONE).then_some(node as usize)
    }

    /// Marks ready gate `gate` complete and returns the successors that
    /// became ready, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `gate` has pending predecessors or already completed.
    fn complete(&mut self, gate: usize) -> [Option<usize>; 2] {
        let entry = &mut self.gates[gate];
        assert!(entry.pending == 0, "gate {gate} is not ready");
        entry.pending = DONE;
        let succ = entry.succ;
        self.remaining -= 1;
        succ.map(|s| {
            if s == NONE {
                return None;
            }
            let next = &mut self.gates[s as usize];
            next.pending -= 1;
            (next.pending == 0).then_some(s as usize)
        })
    }

    /// Whether every gate has completed.
    fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

struct JobState {
    /// Emptied when the job finishes, like every vector below.
    plan: JobPlan,
    /// Swapping-station QPU indices per remote node (the intermediates
    /// of the Fig. 4 "Selected paths"); resolved once at admission and
    /// only populated in path-reservation mode.
    stations: Vec<Vec<usize>>,
    /// Remote nodes retracted by a suspension, re-inserted on resume.
    parked: Vec<usize>,
    /// Suspended jobs keep their computing qubits and any in-flight
    /// EPR rounds, but their remote gates stay out of the front layer
    /// (newly ready ones park) until [`Executor::resume_job`].
    suspended: bool,
    started_at: Tick,
    finished_at: Option<Tick>,
    epr_rounds: u64,
    /// EPR-wait accounting: rounds currently in flight, the instant the
    /// current busy interval opened, and the accumulated busy ticks.
    active_rounds: u32,
    epr_busy_since: Tick,
    epr_wait: u64,
    /// Remote gates the placement induced, kept past the plan.
    remote_gates: usize,
}

/// A multi-job discrete-event executor over one cloud and one
/// scheduling policy.
///
/// Jobs can be admitted at any simulated time (the runtime admits
/// queued jobs as capacity frees). All active jobs compete for the
/// same per-QPU communication qubits.
pub struct Executor<'a> {
    cloud: &'a Cloud,
    scheduler: &'a dyn Scheduler,
    rng: StdRng,
    comm_free: Vec<usize>,
    jobs: Vec<JobState>,
    queue: EventQueue<Event>,
    now: Tick,
    unfinished: usize,
    path_reservation: bool,
    /// The allocation front layer: one request per pending remote gate,
    /// kept in (priority desc, key asc) order (see the module docs).
    front: Vec<RemoteRequest>,
    /// Reused buffer for the path-reservation round filter.
    round_scratch: Vec<RemoteRequest>,
    /// Jobs finished since the last drain, in completion-event order.
    newly_finished: Vec<usize>,
    /// Cached [`Scheduler::is_pure`] — elision is only sound for pure
    /// schedulers.
    scheduler_pure: bool,
    /// True when the last allocation pass ran on the current front
    /// layer and capacities and granted nothing: until something
    /// changes, a pure scheduler would grant nothing again.
    front_settled: bool,
    /// Events drained per tick (same-tick batch sizes).
    batch_stats: BatchStats,
    /// Allocation-pass work counters.
    alloc_stats: AllocStats,
    /// Jobs suspended so far (see [`Executor::suspend_job`]).
    preemptions: u64,
}

impl<'a> Executor<'a> {
    /// Creates an idle executor.
    pub fn new(cloud: &'a Cloud, scheduler: &'a dyn Scheduler, seed: u64) -> Self {
        Executor {
            cloud,
            scheduler,
            rng: SimRng::new(seed).fork("executor").into_std(),
            comm_free: (0..cloud.qpu_count())
                .map(|i| cloud.qpu(QpuId::new(i)).communication_qubits())
                .collect(),
            jobs: Vec::new(),
            queue: EventQueue::new(),
            now: Tick::ZERO,
            unfinished: 0,
            path_reservation: false,
            front: Vec::new(),
            round_scratch: Vec::new(),
            newly_finished: Vec::new(),
            scheduler_pure: scheduler.is_pure(),
            front_settled: false,
            batch_stats: BatchStats::default(),
            alloc_stats: AllocStats::default(),
            preemptions: 0,
        }
    }

    /// Enables *path reservation*: a multi-hop remote gate also holds
    /// one communication qubit at every intermediate QPU on its selected
    /// route (entanglement swapping stations) for the duration of each
    /// EPR round — the "Selected paths" resource semantics of Fig. 4.
    /// Gates whose intermediates are saturated defer to the next round.
    ///
    /// # Panics
    ///
    /// Panics if jobs were already admitted (the mode must be fixed
    /// up front: stations are resolved at admission).
    pub fn with_path_reservation(mut self, enabled: bool) -> Self {
        assert!(
            self.jobs.is_empty(),
            "path reservation must be set before admitting jobs"
        );
        self.path_reservation = enabled;
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of admitted jobs that have not finished.
    pub fn unfinished_jobs(&self) -> usize {
        self.unfinished
    }

    /// Free communication qubits per QPU. When no job holds an EPR
    /// round this equals every QPU's communication capacity (resource
    /// conservation).
    pub fn comm_free(&self) -> &[usize] {
        &self.comm_free
    }

    /// Distribution of same-tick event batch sizes processed so far:
    /// one sample per event tick, counting the events drained at that
    /// tick.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch_stats
    }

    /// Allocation-pass work counters so far: scheduler rounds run and
    /// the requests handed to the scheduler across them (see
    /// [`AllocStats`]).
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc_stats
    }

    /// Admits a job at the current simulated time, or explains why its
    /// placement can never execute on this cloud.
    ///
    /// # Errors
    ///
    /// [`ExecError`] if a remote gate's endpoint lacks communication
    /// qubits, or (in path-reservation mode) its route is missing or
    /// crosses a station without communication qubits. The executor is
    /// unchanged on error.
    pub fn try_add_job(
        &mut self,
        circuit: &Circuit,
        placement: &Placement,
    ) -> Result<usize, ExecError> {
        let plan = JobPlan::new(circuit, placement, self.cloud);
        for &PlanNode { a, b, .. } in &plan.nodes {
            if self.cloud.qpu(a).communication_qubits() == 0
                || self.cloud.qpu(b).communication_qubits() == 0
            {
                return Err(ExecError::NoCommQubits { a, b });
            }
        }
        let stations: Vec<Vec<usize>> = if self.path_reservation {
            let mut all = Vec::with_capacity(plan.nodes.len());
            for &PlanNode { a, b, .. } in &plan.nodes {
                let path = crate::schedule::routing::select_path(self.cloud, a, b)
                    .ok_or(ExecError::NoRoute { a, b })?;
                let mids = crate::schedule::routing::intermediates(&path);
                for q in mids {
                    if self.cloud.qpu(*q).communication_qubits() == 0 {
                        return Err(ExecError::StationWithoutCommQubits { station: *q, a, b });
                    }
                }
                all.push(mids.iter().map(|q| q.index()).collect());
            }
            all
        } else {
            Vec::new()
        };

        let id = self.jobs.len();
        let sources: Vec<usize> = plan.sources().collect();
        self.jobs.push(JobState {
            remote_gates: plan.nodes.len(),
            plan,
            stations,
            parked: Vec::new(),
            suspended: false,
            started_at: self.now,
            finished_at: None,
            epr_rounds: 0,
            active_rounds: 0,
            epr_busy_since: self.now,
            epr_wait: 0,
        });
        self.unfinished += 1;
        if sources.is_empty() {
            // Empty circuit: finishes instantly.
            self.finish_job(id);
        } else {
            for gate in sources {
                self.dispatch(id, gate);
            }
            self.try_allocate();
        }
        Ok(id)
    }

    /// Marks a job finished at the current time and frees its per-gate
    /// and per-node state: [`Executor::job_result`] reads only scalars.
    fn finish_job(&mut self, job: usize) {
        let state = &mut self.jobs[job];
        state.finished_at = Some(self.now);
        state.plan = JobPlan::default();
        state.stations = Vec::new();
        state.parked = Vec::new();
        self.unfinished -= 1;
        self.newly_finished.push(job);
    }

    /// Routes a ready gate: local gates get a completion event, remote
    /// gates join the allocation front layer.
    fn dispatch(&mut self, job: usize, gate: usize) {
        match self.jobs[job].plan.node_of_gate(gate) {
            Some(node) => self.insert_request(job, node),
            None => {
                let lat = self.jobs[job].plan.gates[gate].latency;
                self.queue
                    .push(self.now + lat, Event::GateDone { job, gate });
            }
        }
    }

    /// Adds the request for remote gate `node` of `job` to the front
    /// layer, keeping its list sorted by (priority desc, key asc) — the
    /// order the priority-aware schedulers sort into, so their sorts
    /// hit the pre-sorted fast path.
    fn insert_request(&mut self, job: usize, node: usize) {
        if self.jobs[job].suspended {
            // The job is preempted: hold the request back until resume.
            self.jobs[job].parked.push(node);
            return;
        }
        let PlanNode { a, b, priority, .. } = self.jobs[job].plan.nodes[node];
        let req = RemoteRequest {
            key: encode_key(job, node),
            a,
            b,
            priority: priority as usize,
        };
        let pos = self
            .front
            .binary_search_by(|r| request_order(r, req.priority, req.key))
            .expect_err("request keys are unique while pending");
        self.front.insert(pos, req);
        self.front_settled = false;
    }

    /// Removes `job`'s request for `node` from the front layer (its
    /// round started).
    fn retract(&mut self, job: usize, node: usize) {
        let key = encode_key(job, node);
        let priority = self.jobs[job].plan.nodes[node].priority as usize;
        let pos = self
            .front
            .binary_search_by(|r| request_order(r, priority, key))
            .expect("retracted request was pending");
        self.front.remove(pos);
        self.front_settled = false;
    }

    /// Suspends (preempts) a running job: every pending remote-gate
    /// request is retracted from the allocation front layer and parked,
    /// so the network scheduler stops granting the job EPR pairs. EPR
    /// rounds already in flight complete normally and return their
    /// communication pairs at round end; local gates keep executing;
    /// remote gates that become ready while suspended park instead of
    /// competing. The job keeps its computing qubits (the paper's
    /// placements are not migratable), so preemption frees the
    /// *communication* fabric — the contended resource — for
    /// SLA-critical arrivals.
    ///
    /// Returns `false` (and changes nothing) when the job is unknown,
    /// already suspended or finished. A job left suspended forever
    /// stalls [`Executor::run_to_completion`].
    pub fn suspend_job(&mut self, job: usize) -> bool {
        if self
            .jobs
            .get(job)
            .is_none_or(|j| j.suspended || j.finished_at.is_some())
        {
            return false;
        }
        self.jobs[job].suspended = true;
        // The job's requests are the front entries whose key carries
        // its id; they park in node order.
        let mut parked = Vec::new();
        self.front.retain(|r| {
            let (owner, node) = decode_key(r.key);
            if owner == job {
                parked.push(node);
            }
            owner != job
        });
        if !parked.is_empty() {
            self.front_settled = false;
        }
        parked.sort_unstable();
        self.jobs[job].parked = parked;
        self.preemptions += 1;
        // The retracted demand may redirect this round's grants to the
        // remaining requests immediately.
        self.try_allocate();
        true
    }

    /// Resumes a suspended job: parked remote-gate requests re-enter
    /// the front layer (in node order) and an allocation pass runs.
    /// Returns `false` when the job is unknown or not suspended.
    pub fn resume_job(&mut self, job: usize) -> bool {
        if !self.is_suspended(job) {
            return false;
        }
        self.jobs[job].suspended = false;
        let parked = std::mem::take(&mut self.jobs[job].parked);
        for node in parked {
            self.insert_request(job, node);
        }
        self.try_allocate();
        true
    }

    /// Whether `job` is currently suspended.
    pub fn is_suspended(&self, job: usize) -> bool {
        self.jobs.get(job).is_some_and(|j| j.suspended)
    }

    /// Jobs suspended via [`Executor::suspend_job`] so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Runs the network scheduler over the pending remote gates.
    ///
    /// Change-driven elision: with a pure scheduler, a pass whose
    /// inputs (front layer + free communication qubits) are unchanged
    /// since a pass that granted nothing is skipped — it would grant
    /// nothing again.
    fn try_allocate(&mut self) {
        if self.front.is_empty() || (self.scheduler_pure && self.front_settled) {
            return;
        }
        let requests = if self.path_reservation {
            // Gates whose swapping stations are saturated cannot start
            // a round; filter them out (into a reused buffer).
            let (jobs, comm_free) = (&self.jobs, &self.comm_free);
            self.round_scratch.clear();
            self.round_scratch.extend(self.front.iter().filter(|r| {
                let (job, node) = decode_key(r.key);
                jobs[job].stations[node].iter().all(|&q| comm_free[q] > 0)
            }));
            if self.round_scratch.is_empty() {
                self.front_settled = true;
                return;
            }
            &self.round_scratch
        } else {
            &self.front
        };
        self.alloc_stats.rounds += 1;
        self.alloc_stats.requests_scanned += requests.len() as u64;
        let scheduler = self.scheduler;
        let allocations = scheduler.allocate(requests, &self.comm_free, &mut self.rng);
        debug_assert!(
            validate_allocations(requests, &self.comm_free, &allocations).is_ok(),
            "scheduler {} violated its contract: {:?}",
            scheduler.name(),
            validate_allocations(requests, &self.comm_free, &allocations)
        );
        let epr_latency = self.cloud.latency().epr_attempt();
        let mut granted = false;
        for alloc in allocations {
            let (job, node) = decode_key(alloc.key);
            let PlanNode { a, b, .. } = self.jobs[job].plan.nodes[node];
            let mut pairs = alloc.pairs;
            // Path reservation: re-check stations and endpoints — an
            // earlier allocation's station holds (applied after the
            // scheduler's snapshot) may have drained them. Clamp the
            // pair count to what is really left; defer if nothing is.
            if self.path_reservation {
                pairs = pairs
                    .min(self.comm_free[a.index()])
                    .min(self.comm_free[b.index()]);
                if pairs == 0 {
                    continue;
                }
                let stations = &self.jobs[job].stations[node];
                if stations.iter().any(|&q| self.comm_free[q] == 0) {
                    continue;
                }
                for &q in stations {
                    self.comm_free[q] -= 1;
                }
            }
            self.comm_free[a.index()] -= pairs;
            self.comm_free[b.index()] -= pairs;
            self.retract(job, node);
            granted = true;
            let state = &mut self.jobs[job];
            state.epr_rounds += 1;
            if state.active_rounds == 0 {
                state.epr_busy_since = self.now;
            }
            state.active_rounds += 1;
            self.queue.push(
                self.now + epr_latency,
                Event::RoundDone { job, node, pairs },
            );
        }
        // A granting pass changed the inputs (requests and capacities),
        // so the next tick re-runs as before; a barren pass settles the
        // front layer until something changes.
        self.front_settled = !granted;
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::GateDone { job, gate } => {
                let newly = self.jobs[job].plan.complete(gate);
                for g in newly.into_iter().flatten() {
                    self.dispatch(job, g);
                }
                if self.jobs[job].plan.is_done() {
                    self.finish_job(job);
                }
            }
            Event::RoundDone { job, node, pairs } => {
                let PlanNode { a, b, .. } = self.jobs[job].plan.nodes[node];
                self.comm_free[a.index()] += pairs;
                self.comm_free[b.index()] += pairs;
                if self.path_reservation {
                    for &q in &self.jobs[job].stations[node] {
                        self.comm_free[q] += 1;
                    }
                }
                // Freed capacity may unblock pending requests.
                self.front_settled = false;
                {
                    let state = &mut self.jobs[job];
                    state.active_rounds -= 1;
                    if state.active_rounds == 0 {
                        state.epr_wait += self.now - state.epr_busy_since;
                    }
                }
                // Each remaining hop attempts entanglement this round,
                // one RNG draw per hop in order; successes are banked
                // (entanglement memory). With the link-reliability
                // extension, the end-to-end bottleneck quality scales
                // each attempt's success probability.
                let quality = self.cloud.bottleneck_reliability(a, b);
                let plan_node = &mut self.jobs[job].plan.nodes[node];
                let attempts = plan_node.remaining_hops;
                let successes = self.cloud.epr().sample_successes(
                    pairs,
                    quality,
                    u64::from(attempts),
                    &mut self.rng,
                );
                let remaining = attempts - successes as u32;
                plan_node.remaining_hops = remaining;
                if remaining == 0 {
                    let gate = self.jobs[job].plan.nodes[node].gate as usize;
                    let done_at = self.now + self.cloud.latency().remote_gate_completion();
                    self.queue.push(done_at, Event::GateDone { job, gate });
                } else {
                    self.insert_request(job, node);
                }
            }
        }
    }

    /// Advances to the next event timestamp, processes every event at
    /// it, then re-runs allocation. Returns `false` when no events
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics on deadlock: pending remote gates that can never be
    /// allocated (zero-capacity endpoints).
    fn step(&mut self) -> bool {
        let Some(t) = self.queue.peek_time() else {
            let stuck = self.front.len();
            assert!(
                stuck == 0,
                "executor deadlock: {stuck} remote gates pending with no events in flight"
            );
            return false;
        };
        self.now = t;
        let mut batch = 0usize;
        while self.queue.peek_time() == Some(t) {
            let (_, event) = self.queue.pop().expect("peeked event exists");
            self.handle(event);
            batch += 1;
        }
        self.batch_stats.record(batch);
        self.try_allocate();
        true
    }

    /// Drains the finished-job buffer into `out` (cleared first), in
    /// ascending job id. The internal buffer keeps its capacity
    /// (`clear`, not `take`), so a caller reusing one `out` buffer
    /// across advances allocates nothing per call.
    fn drain_finished_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.newly_finished);
        self.newly_finished.clear();
        out.sort_unstable();
    }

    /// Runs until every admitted job finishes.
    pub fn run_to_completion(&mut self) {
        while self.unfinished > 0 && self.step() {}
        assert_eq!(self.unfinished, 0, "executor stalled with unfinished jobs");
        self.newly_finished.clear();
    }

    /// Processes every event at or before `deadline`, then advances the
    /// clock to `deadline` (so jobs can be admitted at exact arrival
    /// times in incoming-job mode). Fills `out` (cleared first) with
    /// the ids of jobs that finished since the previous `run_*` call,
    /// in ascending id.
    pub fn run_until(&mut self, deadline: Tick, out: &mut Vec<usize>) {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
        self.drain_finished_into(out);
    }

    /// Runs until at least one more job finishes. Fills `out` (cleared
    /// first) with the ids of jobs that finished since the previous
    /// `run_*` call (possibly several at one tick), in ascending id;
    /// it stays empty if everything is already done.
    pub fn run_until_next_completion(&mut self, out: &mut Vec<usize>) {
        while self.newly_finished.is_empty() {
            if !self.step() {
                break;
            }
        }
        self.drain_finished_into(out);
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<Tick> {
        self.queue.peek_time()
    }

    /// The result of job `id`, or `None` if it has not finished.
    pub fn job_result(&self, id: usize) -> Option<JobResult> {
        let job = self.jobs.get(id)?;
        let finished_at = job.finished_at?;
        Some(JobResult {
            started_at: job.started_at,
            finished_at,
            completion_time: Tick::new(finished_at - job.started_at),
            remote_gates: job.remote_gates,
            epr_rounds: job.epr_rounds,
            epr_wait: job.epr_wait,
        })
    }
}

/// The front-layer ordering: priority descending, key ascending —
/// total because keys are unique.
fn request_order(r: &RemoteRequest, priority: usize, key: u64) -> std::cmp::Ordering {
    priority.cmp(&r.priority).then_with(|| r.key.cmp(&key))
}

fn encode_key(job: usize, node: usize) -> u64 {
    ((job as u64) << 32) | node as u64
}

fn decode_key(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
}

/// Convenience wrapper: executes one job to completion and returns its
/// result.
///
/// # Panics
///
/// Panics if [`Executor::try_add_job`] rejects the placement: a remote
/// gate's endpoint QPU has zero communication qubits, so the job could
/// never complete.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::exec::simulate_job;
/// use cloudqc_core::placement::{CloudQcPlacement, PlacementAlgorithm};
/// use cloudqc_core::schedule::CloudQcScheduler;
///
/// let cloud = CloudBuilder::paper_default(42).build();
/// let circuit = catalog::by_name("ghz_n127").unwrap();
/// let placement = CloudQcPlacement::default()
///     .place(&circuit, &cloud, &cloud.status(), 7)
///     .unwrap();
/// let result = simulate_job(&circuit, &placement, &cloud, &CloudQcScheduler, 7);
/// assert!(result.completion_time > cloudqc_sim::Tick::ZERO);
/// ```
pub fn simulate_job(
    circuit: &Circuit,
    placement: &Placement,
    cloud: &Cloud,
    scheduler: &dyn Scheduler,
    seed: u64,
) -> JobResult {
    let mut exec = Executor::new(cloud, scheduler, seed);
    let id = exec
        .try_add_job(circuit, placement)
        .unwrap_or_else(|e| panic!("{e}"));
    exec.run_to_completion();
    exec.job_result(id).expect("job completed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{AverageScheduler, CloudQcScheduler, GreedyScheduler};
    use cloudqc_cloud::CloudBuilder;

    fn cloud2() -> Cloud {
        CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(5)
            .build()
    }

    fn local_placement(n: usize) -> Placement {
        Placement::new(vec![QpuId::new(0); n])
    }

    #[test]
    fn local_job_time_is_critical_path() {
        // h(1) then cx(10) then measure(50) sequentially on one QPU.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(1);
        let cloud = cloud2();
        let r = simulate_job(&c, &local_placement(2), &cloud, &CloudQcScheduler, 0);
        assert_eq!(r.completion_time, Tick::new(61));
        assert_eq!(r.remote_gates, 0);
        assert_eq!(r.epr_rounds, 0);
        assert_eq!(r.epr_wait, 0);
    }

    #[test]
    fn parallel_local_gates_overlap() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3); // independent
        let cloud = cloud2();
        let r = simulate_job(&c, &local_placement(4), &cloud, &CloudQcScheduler, 0);
        assert_eq!(r.completion_time, Tick::new(10));
    }

    #[test]
    fn remote_gate_pays_epr_rounds() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let cloud = cloud2();
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let r = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 1);
        assert_eq!(r.remote_gates, 1);
        assert!(r.epr_rounds >= 1);
        // At least one round (100) + completion (10 + 50 + 1).
        assert!(r.completion_time >= Tick::new(161));
        // Round count matches the elapsed time structure.
        assert_eq!(r.completion_time.as_ticks(), r.epr_rounds * 100 + 61);
        // The whole EPR phase was back-to-back rounds.
        assert_eq!(r.epr_wait, r.epr_rounds * 100);
    }

    #[test]
    fn certain_epr_success_single_round() {
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .epr_success_prob(1.0)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let r = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 2);
        assert_eq!(r.epr_rounds, 1);
        assert_eq!(r.completion_time, Tick::new(161));
        assert_eq!(r.epr_wait, 100);
    }

    #[test]
    fn lower_epr_probability_is_slower_on_average() {
        let mut c = Circuit::new(4);
        for _ in 0..10 {
            c.cx(0, 1);
            c.cx(2, 3);
        }
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(0),
            QpuId::new(1),
        ]);
        let mean = |prob: f64| -> f64 {
            let cloud = CloudBuilder::new(2)
                .line_topology()
                .epr_success_prob(prob)
                .build();
            let total: u64 = (0..20)
                .map(|s| {
                    simulate_job(&c, &p, &cloud, &CloudQcScheduler, s)
                        .completion_time
                        .as_ticks()
                })
                .sum();
            total as f64 / 20.0
        };
        assert!(mean(0.1) > mean(0.5));
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = cloud2();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let a = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 5);
        let b = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_hop_remote_gate_completes() {
        let cloud = CloudBuilder::new(4)
            .line_topology()
            .epr_success_prob(0.5)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(3)]);
        let r = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 3);
        assert_eq!(r.remote_gates, 1);
        assert!(r.completion_time >= Tick::new(161));
    }

    #[test]
    fn concurrent_jobs_share_comm_qubits() {
        // Two jobs each with one remote gate over the same QPU pair.
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(1)
            .epr_success_prob(1.0)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0);
        let j1 = exec.try_add_job(&c, &p).expect("job admitted");
        let j2 = exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        let r1 = exec.job_result(j1).unwrap();
        let r2 = exec.job_result(j2).unwrap();
        // With a single comm qubit per QPU the rounds serialize: the
        // second job's gate waits one full round behind the first.
        assert_eq!(r1.completion_time, Tick::new(161));
        assert_eq!(r2.completion_time, Tick::new(261));
        // Job 2 waited pending for round 1, then ran round 2: its
        // in-flight EPR window is one round, not two.
        assert_eq!(r1.epr_wait, 100);
        assert_eq!(r2.epr_wait, 100);
    }

    #[test]
    fn run_until_next_completion_reports_jobs() {
        let cloud = cloud2();
        let mut short = Circuit::new(1);
        short.h(0);
        let mut long = Circuit::new(1);
        for _ in 0..100 {
            long.h(0);
        }
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0);
        let a = exec
            .try_add_job(&short, &local_placement(1))
            .expect("job admitted");
        let b = exec
            .try_add_job(&long, &local_placement(1))
            .expect("job admitted");
        let mut finished = Vec::new();
        exec.run_until_next_completion(&mut finished);
        assert_eq!(finished, vec![a]);
        exec.run_until_next_completion(&mut finished);
        assert_eq!(finished, vec![b]);
        exec.run_until_next_completion(&mut finished);
        assert!(finished.is_empty());
    }

    #[test]
    fn empty_circuit_finishes_immediately() {
        let cloud = cloud2();
        let c = Circuit::new(3);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0);
        let id = exec
            .try_add_job(&c, &local_placement(3))
            .expect("job admitted");
        let r = exec.job_result(id).unwrap();
        assert_eq!(r.completion_time, Tick::ZERO);
        // The instant completion is still reported by the next drain,
        // so the runtime records it.
        let mut finished = Vec::new();
        exec.run_until_next_completion(&mut finished);
        assert_eq!(finished, vec![id]);
    }

    #[test]
    fn all_schedulers_complete_the_same_workload() {
        let cloud = CloudBuilder::new(3).ring_topology().build();
        let mut c = Circuit::new(6);
        for i in 0..5 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(1),
            QpuId::new(2),
            QpuId::new(2),
        ]);
        for (name, result) in [
            (
                "cloudqc",
                simulate_job(&c, &p, &cloud, &CloudQcScheduler, 4),
            ),
            ("greedy", simulate_job(&c, &p, &cloud, &GreedyScheduler, 4)),
            (
                "average",
                simulate_job(&c, &p, &cloud, &AverageScheduler, 4),
            ),
        ] {
            // cx(1,2) and cx(3,4) cross QPU boundaries; the rest are local.
            assert_eq!(result.remote_gates, 2, "{name}");
            assert!(result.completion_time > Tick::ZERO, "{name}");
        }
    }

    #[test]
    fn path_reservation_charges_swapping_stations() {
        // Line 0-1-2 with QPU1 owning a single comm qubit. Job A's gate
        // (QPU0, QPU2) routes through station QPU1; job B's gate
        // (QPU0, QPU1) uses QPU1 as an *endpoint*. Without reservation
        // they run concurrently (A never touches QPU1's pool); with
        // reservation A's station hold starves B for one round.
        use cloudqc_cloud::Qpu;
        // QPU0 has 3 comm qubits: job A (admitted first, alone) grabs 2
        // for redundancy, leaving one for job B's endpoint share.
        let cloud = CloudBuilder::new(3)
            .line_topology()
            .heterogeneous_qpus(vec![Qpu::new(20, 3), Qpu::new(20, 1), Qpu::new(20, 2)])
            .epr_success_prob(1.0)
            .build();
        let mut far = Circuit::new(2);
        far.cx(0, 1);
        let far_placement = Placement::new(vec![QpuId::new(0), QpuId::new(2)]);
        let mut near = Circuit::new(2);
        near.cx(0, 1);
        let near_placement = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);

        let run = |reservation: bool| -> (Tick, Tick) {
            let mut exec =
                Executor::new(&cloud, &CloudQcScheduler, 0).with_path_reservation(reservation);
            let a = exec
                .try_add_job(&far, &far_placement)
                .expect("job admitted");
            let b = exec
                .try_add_job(&near, &near_placement)
                .expect("job admitted");
            exec.run_to_completion();
            (
                exec.job_result(a).unwrap().completion_time,
                exec.job_result(b).unwrap().completion_time,
            )
        };
        let (free_a, free_b) = run(false);
        let (resv_a, resv_b) = run(true);
        // Job A is unaffected; job B pays for the occupied station.
        assert_eq!(free_a, resv_a);
        assert!(
            resv_b > free_b,
            "station contention should delay job b: {resv_b} vs {free_b}"
        );
    }

    #[test]
    fn path_reservation_no_effect_on_adjacent_gates() {
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .epr_success_prob(1.0)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let plain = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 1);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 1).with_path_reservation(true);
        let id = exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        assert_eq!(exec.job_result(id).unwrap(), plain);
    }

    #[test]
    fn path_reservation_comm_accounting_balances() {
        // Many multi-hop gates on a ring; after completion every comm
        // qubit must be back in the pool.
        let cloud = CloudBuilder::new(5)
            .ring_topology()
            .communication_qubits(2)
            .build();
        let mut c = Circuit::new(6);
        for i in 0..5 {
            c.cx(i, i + 1);
            c.cx(5, i);
        }
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(2),
            QpuId::new(3),
            QpuId::new(4),
            QpuId::new(2),
        ]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 5).with_path_reservation(true);
        let first = exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        assert!(exec.job_result(first).is_some());
        assert_eq!(exec.comm_free(), &[2, 2, 2, 2, 2]);
        let second = exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        assert!(exec.job_result(second).is_some());
        assert_eq!(exec.comm_free(), &[2, 2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "lack communication qubits")]
    fn zero_comm_capacity_detected_at_admission() {
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(0)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        simulate_job(&c, &p, &cloud, &CloudQcScheduler, 0);
    }

    #[test]
    fn try_add_job_rejects_without_mutating() {
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(0)
            .build();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0);
        let err = exec.try_add_job(&c, &p).unwrap_err();
        assert!(matches!(err, ExecError::NoCommQubits { .. }));
        assert_eq!(exec.unfinished_jobs(), 0);
        // A feasible (local) job is still admitted with id 0.
        let local = Placement::new(vec![QpuId::new(0), QpuId::new(0)]);
        assert_eq!(exec.try_add_job(&c, &local).unwrap(), 0);
        exec.run_to_completion();
    }

    #[test]
    fn try_add_job_reports_missing_route_under_reservation() {
        use cloudqc_cloud::{EprModel, LatencyModel, Qpu};
        use cloudqc_graph::Graph;
        let mut topo = Graph::new(3);
        topo.add_edge(0, 1, 1.0);
        let cloud = Cloud::from_parts(
            vec![Qpu::new(4, 2); 3],
            topo,
            LatencyModel::default(),
            EprModel::default(),
        );
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(2)]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0).with_path_reservation(true);
        let err = exec.try_add_job(&c, &p).unwrap_err();
        assert!(matches!(err, ExecError::NoRoute { .. }));
    }

    #[test]
    fn comm_qubits_conserved_after_contended_run() {
        let cloud = CloudBuilder::new(3)
            .ring_topology()
            .communication_qubits(2)
            .build();
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 0);
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(2),
            QpuId::new(0),
        ]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 9);
        exec.try_add_job(&c, &p).expect("job admitted");
        exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        assert_eq!(exec.comm_free(), &[2, 2, 2]);
    }

    #[test]
    fn suspend_parks_requests_and_resume_completes() {
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(1)
            .epr_success_prob(0.05)
            .build();
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.cx(0, 1);
        }
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 3);
        let id = exec.try_add_job(&c, &p).expect("job admitted");
        assert!(exec.suspend_job(id));
        assert!(exec.is_suspended(id));
        assert!(!exec.suspend_job(id), "double suspend is a no-op");
        assert_eq!(exec.preemptions(), 1);
        // In-flight rounds drain and return their pairs, newly ready
        // requests park: the executor goes quiet with the job alive.
        let mut finished = vec![id];
        exec.run_until(Tick::new(1_000_000), &mut finished);
        assert!(finished.is_empty());
        assert_eq!(exec.unfinished_jobs(), 1);
        assert_eq!(exec.next_event_time(), None);
        assert_eq!(exec.comm_free(), &[1, 1]);
        // Resume re-enters the parked requests; the job completes.
        assert!(exec.resume_job(id));
        assert!(!exec.resume_job(id), "double resume is a no-op");
        exec.run_to_completion();
        assert!(exec.job_result(id).is_some());
        assert_eq!(exec.comm_free(), &[1, 1]);
    }

    #[test]
    fn suspend_and_resume_reject_unknown_jobs() {
        let cloud = cloud2();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 0);
        let id = exec
            .try_add_job(&c, &Placement::new(vec![QpuId::new(0), QpuId::new(1)]))
            .expect("job admitted");
        assert!(!exec.suspend_job(id + 1));
        assert!(!exec.resume_job(id + 1));
        assert!(!exec.suspend_job(usize::MAX));
        assert!(!exec.resume_job(usize::MAX));
        assert_eq!(exec.preemptions(), 0);
        exec.run_to_completion();
        assert!(exec.job_result(id).is_some());
    }

    #[test]
    fn suspension_touches_only_its_own_job() {
        // One communication qubit per QPU: the first job's top request
        // takes the only pair, and every other request stays pending.
        let cloud = CloudBuilder::new(2)
            .line_topology()
            .communication_qubits(1)
            .epr_success_prob(0.05)
            .build();
        // Remote chains of 1, 3 and 2 gates: the sources' priorities
        // 0, 2 and 1 put the front out of node order.
        let mut c = Circuit::new(6);
        c.cx(2, 3).cx(0, 1).cx(4, 5).cx(0, 1).cx(4, 5).cx(0, 1);
        let p = Placement::new((0..6).map(|q| QpuId::new(q % 2)).collect());
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 3);
        let first = exec.try_add_job(&c, &p).expect("job admitted");
        let second = exec.try_add_job(&c, &p).expect("job admitted");
        let snapshot = exec.front.clone();
        let (firsts, others): (Vec<RemoteRequest>, Vec<RemoteRequest>) =
            snapshot.iter().partition(|r| decode_key(r.key).0 == first);
        let mut first_nodes: Vec<usize> = firsts.iter().map(|r| decode_key(r.key).1).collect();
        assert!(!first_nodes.is_sorted(), "{first_nodes:?}");
        assert!(others.iter().any(|r| decode_key(r.key).0 == second));

        assert!(exec.suspend_job(first));
        assert_eq!(exec.front, others);
        first_nodes.sort_unstable();
        assert_eq!(exec.jobs[first].parked, first_nodes);

        assert!(exec.resume_job(first));
        assert_eq!(exec.front, snapshot);
        exec.run_to_completion();
        assert!(exec.job_result(first).is_some() && exec.job_result(second).is_some());
    }

    #[test]
    fn epr_wait_bounded_by_service_time() {
        let cloud = CloudBuilder::new(4)
            .line_topology()
            .epr_success_prob(0.4)
            .build();
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(2),
            QpuId::new(3),
        ]);
        let r = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 17);
        assert!(r.epr_wait > 0, "remote gates must wait on EPR");
        assert!(r.epr_wait <= r.completion_time.as_ticks());
    }

    #[test]
    fn finished_jobs_keep_their_result_and_free_their_plan() {
        let cloud = cloud2();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 1).measure_all();
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1), QpuId::new(1)]);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, 7);
        let id = exec.try_add_job(&c, &p).expect("job admitted");
        exec.run_to_completion();
        let state = &exec.jobs[id];
        assert!(state.plan.gates.is_empty() && state.plan.nodes.is_empty());
        // The same job run alone reports the same result from the
        // scalars that outlive the plan.
        let alone = simulate_job(&c, &p, &cloud, &CloudQcScheduler, 7);
        assert_eq!(exec.job_result(id), Some(alone.clone()));
        assert_eq!(alone.remote_gates, 2);
        assert!(!exec.suspend_job(id));
        assert!(!exec.resume_job(id));
        assert_eq!(exec.preemptions(), 0);
        assert_eq!(exec.job_result(id), Some(alone));
    }

    #[test]
    #[should_panic(expected = "gate 1 is not ready")]
    fn completing_a_blocked_gate_panics() {
        let mut c = Circuit::new(1);
        c.h(0).x(0);
        let cloud = cloud2();
        JobPlan::new(&c, &local_placement(1), &cloud).complete(1);
    }

    #[test]
    #[should_panic(expected = "gate 0 is not ready")]
    fn completing_a_gate_twice_panics() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let cloud = cloud2();
        let mut plan = JobPlan::new(&c, &local_placement(2), &cloud);
        plan.complete(0);
        plan.complete(0);
    }

    /// Differential coverage for the job plan: its remote nodes,
    /// priorities, sources and completion order must agree with the
    /// public reference model (`gate_dag`, `FrontTracker`, `RemoteDag`,
    /// `priorities`) on random circuits, placements and clouds. Run
    /// directly with `cargo test -p cloudqc-core job_plan`.
    mod job_plan {
        use super::super::JobPlan;
        use crate::placement::Placement;
        use crate::schedule::priority::priorities;
        use crate::schedule::RemoteDag;
        use cloudqc_circuit::dag::{gate_dag, FrontTracker};
        use cloudqc_circuit::generators::catalog;
        use cloudqc_circuit::Circuit;
        use cloudqc_cloud::{CloudBuilder, QpuId};
        use proptest::prelude::*;

        /// Small instances of every catalog family.
        const CATALOG: [&str; 13] = [
            "ghz_n12",
            "cat_n9",
            "bv_n10",
            "ising_n10",
            "swap_test_n9",
            "knn_n9",
            "qugan_n11",
            "cc_n10",
            "adder_n10",
            "multiplier_n9",
            "qft_n12",
            "qv_n8",
            "vqe_n4",
        ];

        /// Random circuits of 1-qubit gates, measures and CXs over at
        /// most 7 qubits, so pairs repeat and some qubits stay idle
        /// (the empty circuit included), or a catalog instance.
        fn circuit_strategy() -> impl Strategy<Value = Circuit> {
            let random = (
                1usize..8,
                prop::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 0..48),
            )
                .prop_map(|(width, gates)| {
                    let mut c = Circuit::new(width);
                    for (kind, x, y) in gates {
                        let (q0, q1) = (x as usize % width, y as usize % width);
                        match kind {
                            0 => c.h(q0),
                            1 => c.measure(q0),
                            _ if q0 != q1 => c.cx(q0, q1),
                            _ => c.rz(q0, 0.25),
                        };
                    }
                    c
                });
            let named = (0..CATALOG.len())
                .prop_map(|i| catalog::by_name(CATALOG[i]).expect("catalog name"));
            prop_oneof![3 => random, 1 => named]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn plan_matches_the_reference_model(
                circuit in circuit_strategy(),
                line in any::<bool>(),
                cloud_seed in 0u64..4,
                spread in 1usize..6,
                qpus in prop::collection::vec(any::<u8>(), 16),
                picks in prop::collection::vec(any::<u16>(), 1..32),
            ) {
                // A line cloud gives multi-hop remote gates.
                let cloud = if line {
                    CloudBuilder::new(5).line_topology().build()
                } else {
                    CloudBuilder::paper_default(cloud_seed).build()
                };
                let spread = spread.min(cloud.qpu_count());
                let placement = Placement::new(
                    (0..circuit.num_qubits())
                        .map(|q| QpuId::new(qpus[q % qpus.len()] as usize % spread))
                        .collect(),
                );
                let mut plan = JobPlan::new(&circuit, &placement, &cloud);
                let remote = RemoteDag::new(&circuit, &placement, &cloud);
                let priority = priorities(&remote);
                prop_assert_eq!(plan.nodes.len(), remote.node_count());
                for (n, node) in plan.nodes.iter().enumerate() {
                    prop_assert_eq!(node.gate as usize, remote.gate_index(n));
                    prop_assert_eq!((node.a, node.b), remote.endpoints(n));
                    prop_assert_eq!(node.remaining_hops, remote.hops(n).max(1));
                    prop_assert_eq!(node.priority as usize, priority[n], "node {}", n);
                }
                for gate in 0..circuit.gate_count() {
                    prop_assert_eq!(plan.node_of_gate(gate), remote.node_of_gate(gate));
                }

                // Drain in a random ready order: each completion must
                // make the same gates ready, in the same order.
                let mut tracker = FrontTracker::new(&gate_dag(&circuit));
                prop_assert_eq!(plan.sources().collect::<Vec<_>>(), tracker.ready().to_vec());
                let mut step = 0;
                while !tracker.is_done() {
                    prop_assert!(!plan.is_done());
                    let ready = tracker.ready();
                    let gate = ready[picks[step % picks.len()] as usize % ready.len()];
                    step += 1;
                    let expected = tracker.complete(gate);
                    let got: Vec<usize> = plan.complete(gate).into_iter().flatten().collect();
                    prop_assert_eq!(got, expected, "completing gate {}", gate);
                }
                prop_assert!(plan.is_done());
            }
        }
    }
}
