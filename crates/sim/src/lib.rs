//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates CloudQC with "a customized discrete-event
//! simulator in Python" (§VI.A). This crate is the Rust equivalent's
//! foundation — deliberately generic so the domain executor (in
//! `cloudqc-core`) stays readable:
//!
//! * [`Tick`] — an integer simulation clock (1 CX-unit = 10 ticks, see
//!   `cloudqc-cloud`'s latency model).
//! * [`EventQueue`] — a time-ordered binary heap with stable FIFO
//!   tie-breaking, so identical seeds replay identical schedules.
//! * [`SimRng`] — seeded, forkable random streams: every stochastic
//!   component gets its own independent, reproducible stream.
//! * [`metrics`] — summary statistics and CDFs for job-completion-time
//!   reporting (Figs. 10–21 of the paper).
//! * [`series`] — per-job latency breakdowns (queueing / EPR-wait /
//!   compute) and bucketed throughput & utilization time series for the
//!   runtime layer's reporting.
//! * [`online`] — constant-memory streaming aggregates (Welford stats +
//!   a seeded bounded reservoir for percentiles) so a long-lived
//!   service reports throughput and latency without retaining per-job
//!   outcomes.
//!
//! # Example
//!
//! ```
//! use cloudqc_sim::{EventQueue, Tick};
//!
//! let mut q = EventQueue::new();
//! q.push(Tick::new(30), "late");
//! q.push(Tick::new(10), "early");
//! q.push(Tick::new(10), "early-second"); // FIFO among equal times
//! assert_eq!(q.pop(), Some((Tick::new(10), "early")));
//! assert_eq!(q.pop(), Some((Tick::new(10), "early-second")));
//! assert_eq!(q.pop(), Some((Tick::new(30), "late")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod online;
pub mod queue;
pub mod rng;
pub mod series;
pub mod time;

pub use online::{OnlineReport, Reservoir, RunningStat};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use series::{BatchStats, LatencyBreakdown, MeanBreakdown, TimeSeries};
pub use time::Tick;
