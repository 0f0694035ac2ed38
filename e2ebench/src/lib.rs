//! End-to-end benchmark of the CloudQC `Service`/`Fleet` API.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod episode;
pub mod host;
pub mod layers;
pub mod report;
pub mod workload;
