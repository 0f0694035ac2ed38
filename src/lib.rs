//! # CloudQC
//!
//! A network-aware circuit placement and resource scheduling framework
//! for multi-tenant distributed quantum computing — a from-scratch Rust
//! reproduction of *"CloudQC: A Network-aware Framework for Multi-tenant
//! Distributed Quantum Computing"* (ICDCS 2025).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — partitioning, community detection, topologies.
//! * [`circuit`] — circuit IR, workloads, QASM.
//! * [`cloud`] — the quantum cloud model (QPUs, links, EPR, latency).
//! * [`sim`] — the discrete-event simulator.
//! * [`core`] — the CloudQC framework itself: placement algorithms,
//!   network schedulers, the batch manager, and the multi-tenant
//!   runtime.
//!
//! # Quickstart
//!
//! Place one circuit on a 20-QPU cloud and schedule its remote gates:
//!
//! ```
//! use cloudqc::circuit::generators::catalog;
//! use cloudqc::cloud::CloudBuilder;
//! use cloudqc::core::placement::{CloudQcPlacement, PlacementAlgorithm};
//! use cloudqc::core::schedule::CloudQcScheduler;
//! use cloudqc::core::simulate_job;
//!
//! let cloud = CloudBuilder::new(20).computing_qubits(20).communication_qubits(5)
//!     .random_topology(0.3, 42).build();
//! let circuit = catalog::by_name("qugan_n39").unwrap();
//! let placement = CloudQcPlacement::default()
//!     .place(&circuit, &cloud, &cloud.status(), 7)
//!     .expect("cloud has capacity");
//! let result = simulate_job(&circuit, &placement, &cloud, &CloudQcScheduler, 7);
//! assert!(result.completion_time.as_ticks() > 0);
//! ```

pub use cloudqc_circuit as circuit;
pub use cloudqc_cloud as cloud;
pub use cloudqc_core as core;
pub use cloudqc_graph as graph;
pub use cloudqc_sim as sim;

/// The curated single-import surface: everything a typical consumer
/// needs to build a cloud, configure a service or fleet, submit work,
/// and read the reports.
///
/// This is the *stable* face of the workspace — items here are the
/// builder-first API (configure and start the runtime through
/// [`ServiceBuilder`](prelude::ServiceBuilder) /
/// [`FleetBuilder`](prelude::FleetBuilder)), and the error enums
/// re-exported here are `#[non_exhaustive]` so later PRs can add
/// variants (e.g. new routing errors) without a breaking release.
/// Experiment-grade internals (graph partitioning, QASM, individual
/// schedulers beyond the default) stay behind their module paths.
///
/// ```
/// use cloudqc::prelude::*;
///
/// let cloud = CloudBuilder::paper_default(2).build();
/// let placement = CloudQcPlacement::default();
/// let mut service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
///     .admission(AdmissionPolicy::Backfill)
///     .build();
/// service.submit(catalog::by_name("qft_n29").unwrap(), Tick::ZERO);
/// let window = service.drive_to_quiescence().unwrap();
/// assert!(window.quiescent);
/// ```
pub mod prelude {
    pub use cloudqc_circuit::generators::catalog;
    pub use cloudqc_circuit::Circuit;
    pub use cloudqc_cloud::{Cloud, CloudBuilder, QpuId};
    pub use cloudqc_core::error::{ExecError, PlacementError};
    pub use cloudqc_core::placement::{CacheStats, CloudQcPlacement, Placement};
    pub use cloudqc_core::runtime::{
        AdmissionPolicy, CheapestPlacement, Fleet, FleetBuilder, FleetReport, JobRecord,
        LoadShedPolicy, RandomRouting, RoundRobin, RouteContext, RoutingPolicy, RunReport, Service,
        ServiceBuilder, ServiceReport, TenantAffinity, UtilizationBalanced, WindowReport,
    };
    pub use cloudqc_core::schedule::CloudQcScheduler;
    pub use cloudqc_core::workload::{Workload, WorkloadJob};
    pub use cloudqc_sim::online::OnlineReport;
    pub use cloudqc_sim::Tick;
}
