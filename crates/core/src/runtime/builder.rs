//! The one way to configure and start the runtime.
//!
//! [`ServiceBuilder`] is one typed, documented home for every runtime
//! knob, and the configuration a [`Service`] holds for its whole life.
//! [`ServiceBuilder::build`] creates a resident [`Service`];
//! [`ServiceBuilder::run`] drives one epoch of a fresh one. A
//! [`crate::runtime::Fleet`] needs a *per-backend* configuration value
//! it can hold, pass around, and build services from, and this builder
//! is that value: every option is set per backend here.
//!
//! ```
//! use cloudqc_cloud::CloudBuilder;
//! use cloudqc_core::placement::CloudQcPlacement;
//! use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
//! use cloudqc_core::schedule::CloudQcScheduler;
//!
//! let cloud = CloudBuilder::paper_default(1).build();
//! let placement = CloudQcPlacement::default();
//! let service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
//!     .admission(AdmissionPolicy::ShortestJobFirst)
//!     .preemption(true)
//!     .build();
//! assert_eq!(service.pending(), 0);
//! ```

use crate::error::PlacementError;
use crate::placement::{Placement, PlacementAlgorithm, PlacementCache};
use crate::runtime::{AdmissionPolicy, LoadShedPolicy, RunReport, Service};
use crate::schedule::Scheduler;
use crate::workload::Workload;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus};

/// Typed construction of one runtime configuration: every knob the
/// epoch and continuous faces and the fleet's backends share. The
/// defaults are priority-aware backfill admission and the placement
/// cache on; path reservation, preemption and load shedding are off.
/// The streaming report keeps
/// [`OnlineReport::DEFAULT_RESERVOIR`](cloudqc_sim::online::OnlineReport::DEFAULT_RESERVOIR)
/// completion times for its percentiles.
///
/// Every job is placed with the seed `seed ^ fingerprint`, where
/// `fingerprint` is its circuit's structural
/// [`cloudqc_circuit::Fingerprint`]. Two jobs of one circuit shape
/// against one free-capacity vector are therefore one placement
/// problem, which is exactly the placement cache's key. The cache is
/// keyed by the exact free vector and holds at most
/// [`crate::placement::PlacementCache::CAPACITY`] entries (a miss on a
/// full cache clears it whole), so it replays a repeated shape instead
/// of re-running the pipeline, and cached and uncached runs stay
/// byte-identical.
///
/// Terminal calls: [`ServiceBuilder::build`] for a resident
/// [`Service`], [`ServiceBuilder::run`] for one finite workload, or
/// hand the builder to [`crate::runtime::FleetBuilder::backend`] to
/// make it one backend of a federated fleet.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::CloudQcPlacement;
/// use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
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
/// let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
///     .admission(AdmissionPolicy::Backfill)
///     .run(&workload)
///     .unwrap();
/// assert_eq!(report.outcomes.len(), 4);
/// ```
#[derive(Copy, Clone)]
pub struct ServiceBuilder<'a> {
    pub(super) cloud: &'a Cloud,
    pub(super) placement: &'a dyn PlacementAlgorithm,
    pub(super) scheduler: &'a dyn Scheduler,
    pub(super) admission: AdmissionPolicy,
    pub(super) path_reservation: bool,
    pub(super) placement_cache: bool,
    pub(super) preemption: bool,
    pub(super) load_shed: Option<LoadShedPolicy>,
    pub(super) seed: u64,
}

impl<'a> ServiceBuilder<'a> {
    /// A configuration over one cloud, placement algorithm, and network
    /// scheduler, with the default knob settings.
    pub fn new(
        cloud: &'a Cloud,
        placement: &'a dyn PlacementAlgorithm,
        scheduler: &'a dyn Scheduler,
        seed: u64,
    ) -> Self {
        ServiceBuilder {
            cloud,
            placement,
            scheduler,
            admission: AdmissionPolicy::default(),
            path_reservation: false,
            placement_cache: true,
            preemption: false,
            load_shed: None,
            seed,
        }
    }

    /// Selects the admission policy (default: priority-aware backfill).
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Enables executor path reservation (swapping-station holds, see
    /// [`crate::exec::Executor::with_path_reservation`]; off by
    /// default).
    pub fn path_reservation(mut self, enabled: bool) -> Self {
        self.path_reservation = enabled;
        self
    }

    /// Enables or disables the placement cache (on by default). A hit
    /// replays an identical computation, so cached and uncached runs
    /// produce byte-identical schedules, and uncached runs are the
    /// reference cached ones are checked against. Disable it to A/B the
    /// cache or when a placement algorithm violates seeded determinism.
    pub fn placement_cache(mut self, enabled: bool) -> Self {
        self.placement_cache = enabled;
        self
    }

    /// Enables SLA-driven preemption (off by default): admitting a job
    /// that carries a deadline suspends every running deadline-free
    /// job's remote gates, returning their communication pairs to the
    /// fabric until no deadline-carrying job remains in flight.
    /// Suspended jobs keep their computing qubits (placements are not
    /// migratable) and resume exactly where they parked.
    pub fn preemption(mut self, enabled: bool) -> Self {
        self.preemption = enabled;
        self
    }

    /// Enables admission-time load shedding (off by default): arrivals
    /// are rejected with [`crate::error::ExecError::LoadShed`] while
    /// the waiting queue is at the policy's depth cap. In a fleet, a
    /// shed is also the router's per-backend backpressure signal: shed
    /// jobs re-route to another backend instead of being dropped.
    pub fn load_shedding(mut self, policy: LoadShedPolicy) -> Self {
        self.load_shed = Some(policy);
        self
    }

    /// Inert (the runtime is serial); kept because `e2ebench` calls it.
    #[doc(hidden)]
    pub fn worker_threads(self, _threads: usize) -> Self {
        self
    }

    /// Builds the resident [`Service`] this configuration describes.
    pub fn build(self) -> Service<'a> {
        Service::new(self)
    }

    /// Runs the workload to completion — a thin wrapper that drives one
    /// epoch of a fresh [`Service`], so a finite trace and a service
    /// epoch are by construction the same computation.
    ///
    /// Jobs that can never be placed even on an idle cloud
    /// ([`crate::error::ExecError::Unplaceable`]), jobs whose placement
    /// can never *execute* (communication starvation), and jobs whose
    /// SLA expired are rejected in the report; the rest of the run
    /// completes.
    ///
    /// # Errors
    ///
    /// As [`Service::drive`]: [`PlacementError`] only in pathological
    /// loop states, never for a property of the workload.
    pub fn run(&self, workload: &Workload) -> Result<RunReport, PlacementError> {
        let mut service = Service::new(*self);
        service.submit_workload(workload);
        service.drive()
    }

    /// Places one circuit against `status` with the seed
    /// `seed ^ circuit.fingerprint()`, through `cache` when it is on.
    /// Admission and the fleet router's probes both place through
    /// here, so a probe looks up exactly the key the admission will.
    /// The fingerprint is memoized in the circuit's shared body, so
    /// every job of one shape reads the same once-computed value.
    pub(super) fn place(
        &self,
        cache: Option<&mut PlacementCache>,
        circuit: &Circuit,
        status: &CloudStatus,
    ) -> Result<Placement, PlacementError> {
        let seed = self.seed ^ circuit.fingerprint().as_u64();
        match cache {
            Some(cache) => cache.place(self.placement, circuit, self.cloud, status, seed),
            None => self.placement.place(circuit, self.cloud, status, seed),
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
    fn built_service_runs_epochs() {
        let cloud = CloudBuilder::paper_default(3).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 9).build();
        svc.submit(catalog::by_name("vqe_n4").unwrap(), cloudqc_sim::Tick::ZERO);
        let report = svc.drain().unwrap();
        assert_eq!(report.completed, 1);
    }
}
