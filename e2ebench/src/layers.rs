//! Per-layer host-time accounting for the traced run.
//!
//! The benchmark times each layer at its public seam from the outside:
//! [`TimedPlacement`], [`TimedScheduler`] and [`TimedRouting`] wrap the
//! placement algorithm, the network scheduler and the fleet routing
//! policy, forward every trait method (defaulted ones included, so the
//! executor takes the same code path as with the bare types) and add the
//! time spent inside each call to one shared [`LayerClock`].
//!
//! Everything runs on one thread; the atomics only satisfy the `Sync`
//! bounds of the traits and publish nothing else, hence `Relaxed`.

use cloudqc::cloud::CloudStatus;
use cloudqc::core::placement::PlacementAlgorithm;
use cloudqc::core::schedule::{Allocation, EmissionOrder, RemoteRequest, Scheduler};
use cloudqc::prelude::{
    Circuit, Cloud, Placement, PlacementError, RouteContext, RoutingPolicy, WorkloadJob,
};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls and busy nanoseconds per layer seam.
#[derive(Debug, Default)]
pub struct LayerClock {
    place_calls: AtomicU64,
    place_ns: AtomicU64,
    /// The part of `place_ns` spent in routing probes.
    probe_ns: AtomicU64,
    schedule_calls: AtomicU64,
    schedule_ns: AtomicU64,
    route_calls: AtomicU64,
    route_ns: AtomicU64,
    in_route: AtomicBool,
}

/// A snapshot of a [`LayerClock`], in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    pub place_calls: u64,
    pub place_s: f64,
    pub probe_s: f64,
    pub schedule_calls: u64,
    pub schedule_s: f64,
    pub route_calls: u64,
    /// Routing time minus the placement probes it ran.
    pub route_self_s: f64,
}

fn secs(ns: &AtomicU64) -> f64 {
    ns.load(Relaxed) as f64 * 1e-9
}

fn add_elapsed(ns: &AtomicU64, since: Instant) -> u64 {
    let elapsed = since.elapsed().as_nanos() as u64;
    ns.fetch_add(elapsed, Relaxed);
    elapsed
}

impl LayerClock {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn times(&self) -> LayerTimes {
        LayerTimes {
            place_calls: self.place_calls.load(Relaxed),
            place_s: secs(&self.place_ns),
            probe_s: secs(&self.probe_ns),
            schedule_calls: self.schedule_calls.load(Relaxed),
            schedule_s: secs(&self.schedule_ns),
            route_calls: self.route_calls.load(Relaxed),
            route_self_s: secs(&self.route_ns) - secs(&self.probe_ns),
        }
    }

    fn schedule<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        add_elapsed(&self.schedule_ns, start);
        self.schedule_calls.fetch_add(1, Relaxed);
        out
    }
}

/// A placement algorithm that reports its time to a [`LayerClock`].
pub struct TimedPlacement<P> {
    pub inner: P,
    pub clock: Arc<LayerClock>,
}

impl<P: PlacementAlgorithm> PlacementAlgorithm for TimedPlacement<P> {
    fn name(&self) -> &'static str {
        // Part of the placement-cache key: must be the inner name.
        self.inner.name()
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        let start = Instant::now();
        let out = self.inner.place(circuit, cloud, status, seed);
        let elapsed = add_elapsed(&self.clock.place_ns, start);
        if self.clock.in_route.load(Relaxed) {
            self.clock.probe_ns.fetch_add(elapsed, Relaxed);
        }
        self.clock.place_calls.fetch_add(1, Relaxed);
        out
    }
}

/// A network scheduler that reports its time to a [`LayerClock`].
pub struct TimedScheduler<S> {
    pub inner: S,
    pub clock: Arc<LayerClock>,
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        self.clock
            .schedule(|| self.inner.allocate(requests, available, rng))
    }

    fn is_pure(&self) -> bool {
        self.inner.is_pure()
    }

    fn allocate_sharded(
        &self,
        shards: &[&[RemoteRequest]],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        self.clock
            .schedule(|| self.inner.allocate_sharded(shards, available, rng))
    }

    fn allocate_shard_iter(
        &self,
        shards: &mut dyn Iterator<Item = &[RemoteRequest]>,
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        self.clock
            .schedule(|| self.inner.allocate_shard_iter(shards, available, rng))
    }

    fn sharded_emission_order(&self) -> Option<EmissionOrder> {
        self.inner.sharded_emission_order()
    }
}

/// A fleet routing policy that reports its time to a [`LayerClock`];
/// placement probes it triggers are booked as probe time.
pub struct TimedRouting<R> {
    pub inner: R,
    pub clock: Arc<LayerClock>,
}

impl<R: RoutingPolicy> RoutingPolicy for TimedRouting<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, job: &WorkloadJob, ctx: &mut RouteContext<'_, '_>) -> usize {
        let start = Instant::now();
        self.clock.in_route.store(true, Relaxed);
        let chosen = self.inner.route(job, ctx);
        self.clock.in_route.store(false, Relaxed);
        add_elapsed(&self.clock.route_ns, start);
        self.clock.route_calls.fetch_add(1, Relaxed);
        chosen
    }
}
