//! # clover-serving
//!
//! The ML inference serving substrate: a discrete-event simulation of the
//! paper's load-balancer architecture (producer → FIFO queue → consumer →
//! service instances on MIG slices), plus the analytic steady-state
//! estimator used for offline profiling.
//!
//! - [`deployment`] — the concrete `(x_p, x_v)` configuration, with BASE and
//!   CO2OPT constructors and OOM validation.
//! - [`sim`] — the event-driven simulator: pluggable arrival processes from
//!   `clover_workload` (open-loop Poisson by default; diurnal, MMPP and
//!   flash-crowd via [`ServingSim::run_window_with`]),
//!   FIFO dispatch to free instances, p95 latency tracking, energy
//!   integration (dynamic + idle + static).
//! - [`analytic`] — M/M/c-style steady-state estimates (stability, p95,
//!   accuracy, energy per request) for cheap configuration screening.

#![warn(missing_docs)]

pub mod analytic;
pub mod deployment;
pub mod sim;

pub use analytic::{estimate, AnalyticEstimate};
pub use deployment::{Deployment, DeploymentError};
pub use sim::{
    InstanceFailure, ServingCarry, ServingSim, WindowMetrics, MAX_QUEUE, SERVICE_JITTER_SIGMA,
};
