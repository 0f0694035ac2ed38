//! Routing policies for a federated [`crate::runtime::Fleet`]: which
//! backend gets the next submission.
//!
//! The fleet consults its [`RoutingPolicy`] once per submission that
//! has a genuine choice (two or more healthy candidate backends; with
//! one candidate the job is committed directly, which is what keeps a
//! fleet of one byte-identical to a bare service). The policy sees the
//! job and a [`RouteContext`] over the candidates — each backend's live
//! load per computing qubit and a speculative placement probe against
//! its current ledger — and names the winner.
//!
//! Shipped policies, roughly in increasing cost per decision:
//!
//! | policy | signal | cost per decision |
//! |---|---|---|
//! | [`RoundRobin`] | none (rotation) | O(1) |
//! | [`RandomRouting`] | none (seeded draw) | O(1) |
//! | [`UtilizationBalanced`] | live queue depth + in-flight / capacity | O(backends) |
//! | [`TenantAffinity`] | sticky tenant → backend map | O(1) amortized |
//! | [`CheapestPlacement`] | speculative placement probe + comm cost | O(backends × place) |
//!
//! [`TenantAffinity`] is the cache-aware one: keeping a tenant's
//! (typically repetitive) circuit shapes on one backend keeps that
//! backend's [`crate::placement::PlacementCache`] hot for exactly those
//! shapes, where spreading the tenant would cold-miss every backend.
//! [`CheapestPlacement`] pays a placement probe per candidate — but the
//! probes go through the per-backend caches, so steady-state probing is
//! mostly cache hits.

use crate::placement::cost::communication_cost;
use crate::runtime::Service;
use crate::workload::WorkloadJob;
use cloudqc_sim::SimRng;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// What a routing decision gets to look at: the healthy backends still
/// eligible for this job (a re-route excludes backends that already
/// rejected it), with live load signals and a speculative placement
/// probe per candidate.
///
/// Candidate ids are fleet backend indices; they are stable across the
/// fleet's lifetime (a failed backend drops out of the candidate list,
/// not out of the numbering).
pub struct RouteContext<'f, 'a> {
    /// `(backend id, backend)`, ascending by id, never empty.
    candidates: Vec<(usize, &'f mut Service<'a>)>,
}

impl<'f, 'a> RouteContext<'f, 'a> {
    pub(crate) fn new(candidates: Vec<(usize, &'f mut Service<'a>)>) -> Self {
        debug_assert!(!candidates.is_empty(), "routing needs a candidate");
        RouteContext { candidates }
    }

    /// The eligible backend ids, ascending.
    pub fn candidate_ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|&(id, _)| id).collect()
    }

    fn get(&self, id: usize) -> &Service<'a> {
        self.candidates
            .iter()
            .find(|&&(cid, _)| cid == id)
            .map(|(_, svc)| &**svc)
            .expect("id comes from candidate_ids")
    }

    /// Backend `id`'s load: jobs anywhere in its pipeline (pending +
    /// waiting + in flight) per computing qubit, so heterogeneous
    /// backends compare fairly (10 jobs on a 2-QPU backend is a longer
    /// wait than 10 on a 20-QPU one).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a candidate, as does
    /// [`RouteContext::placement_cost`].
    pub fn load(&self, id: usize) -> f64 {
        let svc = self.get(id);
        let jobs = svc.pending() + svc.queue_depth() + svc.in_flight();
        jobs as f64 / svc.cloud().total_computing_capacity().max(1) as f64
    }

    /// The candidate with the least [`RouteContext::load`] (lowest id
    /// wins ties) — the universal fallback.
    pub fn least_loaded(&self) -> usize {
        self.candidates
            .iter()
            .map(|&(id, _)| id)
            .min_by(|&a, &b| {
                self.load(a)
                    .partial_cmp(&self.load(b))
                    .expect("loads are finite")
                    .then(a.cmp(&b))
            })
            .expect("candidates are never empty")
    }

    /// Speculatively places `job` on backend `id` (through its
    /// placement cache, against its live ledger — see
    /// `Service::probe_place`) and scores the placement by the paper's
    /// communication-cost objective. `None` when the backend cannot
    /// place the job right now.
    ///
    /// The probe looks up exactly the cache key the backend's admission
    /// will, so a hit costs no pipeline run and a miss warms the entry
    /// the admission then reads.
    pub fn placement_cost(&mut self, id: usize, job: &WorkloadJob) -> Option<f64> {
        let svc = self
            .candidates
            .iter_mut()
            .find(|&&mut (cid, _)| cid == id)
            .map(|(_, svc)| &mut **svc)
            .expect("id comes from candidate_ids");
        let placement = svc.probe_place(job).ok()?;
        Some(communication_cost(&job.circuit, &placement, svc.cloud()))
    }
}

/// A pluggable fleet routing decision.
///
/// `route` should return one of [`RouteContext::candidate_ids`]. An
/// out-of-set answer is a policy bug, and the fleet routes that job to
/// [`RouteContext::least_loaded`] instead. Policies may keep state
/// (`&mut self`) — rotation cursors, affinity maps, seeded RNGs — and
/// must be deterministic for a deterministic fleet run.
pub trait RoutingPolicy {
    /// Short stable policy label, for reports and bench tables.
    fn name(&self) -> &'static str;

    /// Picks the backend for `job` among `ctx`'s candidates.
    fn route(&mut self, job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize;
}

/// Routes to the backend whose speculative placement of the job has
/// the lowest communication cost (ties to the lower id); backends that
/// cannot place the job right now score infinite, and if none can the
/// job goes to the least-loaded backend to queue.
///
/// The probe per candidate runs the backend's real placement pipeline
/// through its [`crate::placement::PlacementCache`], so the decision
/// pays the pipeline cost only on cache-cold (shape, free-capacity)
/// signatures (see [`RouteContext::placement_cost`]).
#[derive(Clone, Debug, Default)]
pub struct CheapestPlacement;

impl CheapestPlacement {
    /// A probe-everything router.
    pub fn new() -> Self {
        Self
    }

    /// Inert (probes run serially); kept because `e2ebench` calls it.
    #[doc(hidden)]
    pub fn with_worker_threads(self, _threads: usize) -> Self {
        self
    }
}

impl RoutingPolicy for CheapestPlacement {
    fn name(&self) -> &'static str {
        "cheapest-placement"
    }

    fn route(&mut self, job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        let best = ctx
            .candidate_ids()
            .into_iter()
            .filter_map(|id| ctx.placement_cost(id, job).map(|c| (c, id)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        match best {
            Some((_, id)) => id,
            None => ctx.least_loaded(),
        }
    }
}

/// Routes to the backend with the least capacity-normalized load
/// ([`RouteContext::load`]): live queue depth + in-flight + pending per
/// computing qubit. The cheapest policy that reacts to actual
/// congestion; the fleet's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct UtilizationBalanced;

impl RoutingPolicy for UtilizationBalanced {
    fn name(&self) -> &'static str {
        "utilization-balanced"
    }

    fn route(&mut self, _job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        ctx.least_loaded()
    }
}

/// Sticky tenant-to-backend routing: a tenant's first job picks the
/// least-loaded backend and every later job follows it, keeping the
/// tenant's (typically repetitive) circuit shapes hot in *one*
/// backend's placement cache instead of cold-missing all of them.
///
/// When a tenant's home backend is ineligible (failed, or it already
/// rejected this job), the tenant is re-homed to the least-loaded
/// candidate and sticks there.
#[derive(Clone, Debug, Default)]
pub struct TenantAffinity {
    home: HashMap<usize, usize>,
}

impl TenantAffinity {
    /// An affinity policy with no tenants homed yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingPolicy for TenantAffinity {
    fn name(&self) -> &'static str {
        "tenant-affinity"
    }

    fn route(&mut self, job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        if let Some(&home) = self.home.get(&job.tenant) {
            if ctx.candidate_ids().contains(&home) {
                return home;
            }
        }
        let chosen = ctx.least_loaded();
        self.home.insert(job.tenant, chosen);
        chosen
    }
}

/// Load-blind rotation over the candidate ids — the classic baseline.
/// The cursor advances by backend id, so a failed backend is simply
/// skipped and re-routes continue the rotation among the survivors.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A rotation starting at backend 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        let ids = ctx.candidate_ids();
        let chosen = ids
            .iter()
            .copied()
            .find(|&id| id >= self.next)
            .unwrap_or(ids[0]);
        self.next = chosen + 1;
        chosen
    }
}

/// Seed-deterministic uniform routing over the candidates — the
/// baseline the informed policies are compared against
/// (`tests/fleet.rs` checks that tenant affinity beats it on cache hit
/// rate).
#[derive(Clone, Debug)]
pub struct RandomRouting {
    rng: StdRng,
}

impl RandomRouting {
    /// A uniform router drawing from a stream forked off `seed`.
    pub fn new(seed: u64) -> Self {
        RandomRouting {
            rng: SimRng::new(seed).fork("fleet-routing").into_std(),
        }
    }
}

impl RoutingPolicy for RandomRouting {
    fn name(&self) -> &'static str {
        "random"
    }

    fn route(&mut self, _job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        let ids = ctx.candidate_ids();
        ids[self.rng.random_range(0..ids.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::runtime::ServiceBuilder;
    use crate::schedule::CloudQcScheduler;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::{Cloud, CloudBuilder};
    use cloudqc_sim::Tick;

    fn clouds() -> Vec<Cloud> {
        vec![
            CloudBuilder::paper_default(2).build(),
            CloudBuilder::paper_default(4).build(),
        ]
    }

    fn job() -> WorkloadJob {
        WorkloadJob::new(catalog::by_name("qft_n29").unwrap(), Tick::ZERO)
    }

    #[test]
    fn context_signals_and_fallback() {
        let clouds = clouds();
        let placement = CloudQcPlacement::default();
        let mut services: Vec<Service> = clouds
            .iter()
            .map(|c| ServiceBuilder::new(c, &placement, &CloudQcScheduler, 3).build())
            .collect();
        // Pile pending work on backend 0 so 1 is the clear choice.
        for _ in 0..4 {
            services[0].submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
        }
        let mut ctx = RouteContext::new(services.iter_mut().enumerate().collect());
        assert_eq!(ctx.candidate_ids(), vec![0, 1]);
        assert!(ctx.load(0) > ctx.load(1));
        assert_eq!(ctx.least_loaded(), 1);
        assert_eq!(UtilizationBalanced.route(&job(), &mut ctx), 1);
        let cost = ctx.placement_cost(1, &job());
        assert!(cost.is_some_and(|c| c >= 0.0));
    }

    #[test]
    fn cheapest_placement_prefers_the_lower_comm_cost_backend() {
        // Backend 0 is a single large QPU (no remote gates at all);
        // backend 1 forces the circuit to split. Zero cost must win.
        let one_qpu = CloudBuilder::new(1).computing_qubits(40).build();
        let split = CloudBuilder::new(4)
            .computing_qubits(10)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let mut a = ServiceBuilder::new(&one_qpu, &placement, &CloudQcScheduler, 3).build();
        let mut b = ServiceBuilder::new(&split, &placement, &CloudQcScheduler, 3).build();
        let mut ctx = RouteContext::new(vec![(0, &mut a), (1, &mut b)]);
        assert_eq!(CheapestPlacement::new().route(&job(), &mut ctx), 0);
    }

    #[test]
    fn repeated_shapes_warm_the_probe_caches() {
        // Probes go through each backend's placement cache, so routing
        // the same shape twice must hit a cache the first probe warmed.
        let clouds = clouds();
        let placement = CloudQcPlacement::default();
        let mut services: Vec<Service> = clouds
            .iter()
            .map(|c| ServiceBuilder::new(c, &placement, &CloudQcScheduler, 3).build())
            .collect();
        let mut policy = CheapestPlacement::new();
        for name in ["qft_n29", "ghz_n40", "qft_n29", "ising_n34"] {
            let j = WorkloadJob::new(catalog::by_name(name).unwrap(), Tick::ZERO);
            let mut ctx = RouteContext::new(services.iter_mut().enumerate().collect());
            let chosen = policy.route(&j, &mut ctx);
            assert!(chosen < clouds.len());
        }
        let stats: Vec<_> = services.iter().map(|s| s.cache_stats()).collect();
        assert!(
            stats.iter().any(|s| s.hits > 0),
            "the repeated shape should warm a probe cache: {stats:?}"
        );
    }

    #[test]
    fn tenant_affinity_sticks_and_rehomes() {
        let clouds = clouds();
        let placement = CloudQcPlacement::default();
        let mut services: Vec<Service> = clouds
            .iter()
            .map(|c| ServiceBuilder::new(c, &placement, &CloudQcScheduler, 3).build())
            .collect();
        let mut policy = TenantAffinity::new();
        let mut t0 = job();
        t0.tenant = 7;
        let (left, right) = services.split_at_mut(1);
        let first = {
            let mut ctx = RouteContext::new(vec![(0, &mut left[0]), (1, &mut right[0])]);
            policy.route(&t0, &mut ctx)
        };
        assert_eq!(policy.home.get(&7), Some(&first));
        // Load up the chosen backend: affinity must still stick.
        for _ in 0..5 {
            services[first].submit(catalog::by_name("vqe_n4").unwrap(), Tick::ZERO);
        }
        let (left, right) = services.split_at_mut(1);
        let second = {
            let mut ctx = RouteContext::new(vec![(0, &mut left[0]), (1, &mut right[0])]);
            policy.route(&t0, &mut ctx)
        };
        assert_eq!(first, second, "affinity ignores load once homed");
        // Home gone from the candidate set: re-home to the survivor.
        let other = 1 - first;
        let rehomed = {
            let mut ctx = RouteContext::new(vec![(other, &mut services[other])]);
            policy.route(&t0, &mut ctx)
        };
        assert_eq!(rehomed, other);
        assert_eq!(policy.home.get(&7), Some(&other));
    }

    #[test]
    fn round_robin_rotates_and_skips_gaps() {
        let clouds = clouds();
        let placement = CloudQcPlacement::default();
        let mut services: Vec<Service> = clouds
            .iter()
            .map(|c| ServiceBuilder::new(c, &placement, &CloudQcScheduler, 3).build())
            .collect();
        let mut policy = RoundRobin::new();
        let j = job();
        let (left, right) = services.split_at_mut(1);
        let mut ctx = RouteContext::new(vec![(0, &mut left[0]), (1, &mut right[0])]);
        assert_eq!(policy.route(&j, &mut ctx), 0);
        assert_eq!(policy.route(&j, &mut ctx), 1);
        assert_eq!(policy.route(&j, &mut ctx), 0, "wraps around");
        // Backend 0 dropped out: the rotation continues on 1 alone.
        let mut ctx = RouteContext::new(vec![(1, &mut services[1])]);
        assert_eq!(policy.route(&j, &mut ctx), 1);
        assert_eq!(policy.route(&j, &mut ctx), 1);
    }

    #[test]
    fn random_routing_is_seed_deterministic_and_in_range() {
        let clouds = clouds();
        let placement = CloudQcPlacement::default();
        let mut services: Vec<Service> = clouds
            .iter()
            .map(|c| ServiceBuilder::new(c, &placement, &CloudQcScheduler, 3).build())
            .collect();
        let j = job();
        let draw = |seed: u64, services: &mut Vec<Service>| {
            let mut policy = RandomRouting::new(seed);
            let (left, right) = services.split_at_mut(1);
            let mut ctx = RouteContext::new(vec![(0, &mut left[0]), (1, &mut right[0])]);
            (0..16)
                .map(|_| policy.route(&j, &mut ctx))
                .collect::<Vec<_>>()
        };
        let a = draw(5, &mut services);
        let b = draw(5, &mut services);
        assert_eq!(a, b, "same seed, same routes");
        assert!(a.iter().all(|&id| id < 2));
        assert!(a.contains(&0) && a.contains(&1));
    }
}
