//! The unified cloud runtime: workload → admission → executor →
//! metrics, one-shot, epoch-resident, or continuous.
//!
//! One event-driven orchestration loop serves every execution mode of
//! the paper — batch (§VI.D) and incoming jobs (§V.B) — plus the open
//! scenarios the ROADMAP asks for (bursty traffic, trace replay,
//! diurnal curves, heavy-tailed sizes), under pluggable admission
//! policies:
//!
//! ```text
//!  Workload (batch / poisson / bursty / trace /      crate::workload
//!            diurnal / pareto_sizes)
//!      │ arrivals
//!      ▼
//!  Service core ── AdmissionPolicy (FCFS / backfill / priority /
//!   (epochs or      SJF / weighted fair-share / deadline-aware)
//!    continuous     + aging, preemption, LoadShedPolicy
//!    clock)
//!      │ placements (crate::placement, persistent PlacementCache)
//!      ▼
//!  Executor — shared EPR rounds, incremental front layer,  crate::exec
//!             suspend/resume for preemption
//!      │ completions
//!      ▼
//!  RunReport (per-epoch) / WindowReport (continuous window) +
//!  OnlineReport (streaming, lifetime clock)   cloudqc_sim::{series,online}
//! ```
//!
//! The loop lives in the resident [`Service`], which exposes two faces
//! over its one engine (`runtime/engine.rs`): the continuous clock
//! (`drive_until` / `drive_for` / `drive_to_quiescence`, submissions
//! landing on the live executor mid-flight) and epochs (`submit` /
//! `drive` / `drain`). An epoch is a drive to quiescence whose
//! arrivals are offset by the service clock and whose records are
//! restamped from the epoch's start. [`ServiceBuilder`] is the one way
//! in: it configures the runtime and either builds a resident
//! [`Service`] or, through [`ServiceBuilder::run`], drives exactly one
//! epoch of a fresh one, so finite-trace experiments, service epochs
//! and continuous drives are the same computation by construction (see
//! the golden tests in `tests/runtime_golden.rs`).

mod admission;
mod builder;
mod engine;
pub mod fleet;
mod report;
pub mod routing;
pub mod service;

pub use admission::{AdmissionPolicy, LoadShedPolicy};
pub use builder::ServiceBuilder;
pub use fleet::{Fleet, FleetBuilder, FleetReport};
pub use report::{JobRecord, RunReport};
pub use routing::{
    CheapestPlacement, RandomRouting, RoundRobin, RouteContext, RoutingPolicy, TenantAffinity,
    UtilizationBalanced,
};
pub use service::{Service, ServiceReport, WindowReport};
