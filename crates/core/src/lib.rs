//! The CloudQC framework: network-aware circuit placement and resource
//! scheduling for a multi-tenant quantum cloud.
//!
//! This crate is the reproduction of the paper's contribution proper
//! (*CloudQC: A Network-aware Framework for Multi-tenant Distributed
//! Quantum Computing*, ICDCS 2025), built on the workspace substrates
//! (`cloudqc-graph`, `cloudqc-circuit`, `cloudqc-cloud`, `cloudqc-sim`):
//!
//! * [`placement`] — Algorithm 1 (partition sweep + scoring), Algorithm
//!   2 (community detection + center mapping), the CloudQC-BFS variant,
//!   and the Random / SA / GA baselines of Table III.
//! * [`schedule`] — the remote DAG (Fig. 3b), longest-path priorities,
//!   and the CloudQC / Greedy / Average / Random allocation policies of
//!   §VI.C.
//! * [`exec`] — the discrete-event executor: local gate latencies,
//!   probabilistic EPR rounds, shared communication qubits across
//!   concurrent jobs, an incrementally maintained allocation front
//!   layer.
//! * [`runtime`] / [`workload`] — the unified cloud runtime: seed-
//!   deterministic workloads (batch, Poisson, bursty, trace replay,
//!   diurnal curves, heavy-tailed sizes) through pluggable admission
//!   (FCFS, backfill, priority-aware, shortest-job-first, weighted
//!   fair-share, deadline-aware) into the shared executor. The
//!   resident [`runtime::Service`] serves an unbounded stream in
//!   epochs over a persistent placement cache with streaming metrics;
//!   [`runtime::ServiceBuilder`] configures it, and
//!   [`runtime::ServiceBuilder::run`] runs one finite trace, reporting
//!   per-job latency breakdowns.
//! * [`batch`] — the batch manager's job metric and ordering (Eq. 11);
//!   the runtime applies it as [`runtime::AdmissionPolicy::PriorityBackfill`].
//!
//! # Placing and executing one circuit
//!
//! ```
//! use cloudqc_circuit::generators::catalog;
//! use cloudqc_cloud::CloudBuilder;
//! use cloudqc_core::placement::{CloudQcPlacement, PlacementAlgorithm, cost};
//! use cloudqc_core::schedule::CloudQcScheduler;
//! use cloudqc_core::simulate_job;
//!
//! let cloud = CloudBuilder::paper_default(42).build();
//! let circuit = catalog::by_name("knn_n67").unwrap();
//!
//! let placement = CloudQcPlacement::default()
//!     .place(&circuit, &cloud, &cloud.status(), 7)
//!     .unwrap();
//! println!("remote ops: {}", cost::remote_op_count(&circuit, &placement));
//!
//! let result = simulate_job(&circuit, &placement, &cloud, &CloudQcScheduler, 7);
//! println!("JCT: {} ticks", result.completion_time.as_ticks());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod error;
pub mod exec;
pub mod placement;
pub mod runtime;
pub mod schedule;
pub mod workload;

pub use error::{ExecError, PlacementError};
pub use exec::{simulate_job, AllocStats, Executor, JobResult};
pub use runtime::{JobRecord, RunReport, Service, ServiceBuilder, ServiceReport};
pub use workload::Workload;
