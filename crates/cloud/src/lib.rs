//! The quantum cloud model of the CloudQC reproduction (paper §III).
//!
//! A *quantum cloud* is a fixed topology of QPUs connected by quantum
//! links. Each QPU has **computing qubits** (run gates) and
//! **communication qubits** (generate EPR pairs for remote gates). A
//! central controller — implemented in `cloudqc-core` — places circuits
//! onto QPUs and schedules network resources.
//!
//! This crate provides the passive model:
//!
//! * [`Qpu`] / [`QpuId`] — per-QPU resource capacities.
//! * [`Cloud`] — topology + hop-distance matrix (`C_ij`, §IV.B) +
//!   latency and EPR models.
//! * [`CloudBuilder`] — the paper's evaluation settings in one line:
//!   20 QPUs × (20 computing + 5 communication) qubits, `G(20, 0.3)`
//!   topology.
//! * [`LatencyModel`] — Table I in integer ticks (1 CX = 10 ticks).
//! * [`EprModel`] — probabilistic EPR generation: a round with `x`
//!   allocated pairs succeeds with probability `1-(1-p)^x`, default
//!   `p = 0.3`.
//! * [`CloudStatus`] — mutable resource availability, the controller's
//!   view of free computing qubits.
//!
//! # Example
//!
//! ```
//! use cloudqc_cloud::CloudBuilder;
//!
//! let cloud = CloudBuilder::new(20)
//!     .computing_qubits(20)
//!     .communication_qubits(5)
//!     .random_topology(0.3, 42)
//!     .build();
//! assert_eq!(cloud.qpu_count(), 20);
//! assert_eq!(cloud.total_computing_capacity(), 400);
//! let mut status = cloud.status();
//! status.allocate_computing(cloudqc_cloud::QpuId::new(0), 5).unwrap();
//! assert_eq!(status.free_computing(cloudqc_cloud::QpuId::new(0)), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cloud;
pub mod epr;
pub mod latency;
pub mod qpu;
pub mod status;

pub use builder::CloudBuilder;
pub use cloud::Cloud;
pub use epr::{EprModel, RoundSampler};
pub use latency::LatencyModel;
pub use qpu::{Qpu, QpuId};
pub use status::{CloudStatus, ResourceError};
