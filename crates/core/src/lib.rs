//! # clover-core
//!
//! The Clover scheduler itself: everything above the substrates.
//!
//! - [`graph`] — the configuration graph (Definition 1) and graph edit
//!   distance, the compact search representation of `(x_p, x_v)`.
//! - [`neighbors`] — GED-bounded neighbor sampling (threshold 4).
//! - [`objective`] — Eqs. 1–6: ΔAccuracy, ΔCarbon, the λ-weighted objective
//!   `f`, the SLA constraint, and the SA energy `h`.
//! - [`anneal`](mod@anneal) — the paper's simulated-annealing loop (T₀ = 1,
//!   cooling 0.05/iteration to 0.1, 5-minute budget, 5-non-improving stop).
//! - [`eval`] — live candidate evaluation on the serving simulator, with
//!   reconfiguration downtime charged.
//! - [`schedulers`] — the paper's five schemes (BASE, CO2OPT, BLOVER,
//!   CLOVER, ORACLE) as [`SchemeKind`], each built by [`make_scheduler`]
//!   into a [`Scheduler`] lifecycle (`plan`/`observe`) that partitions
//!   whatever fleet the autoscaler has active.
//! - [`autoscale`] — the elastic-fleet layer beyond the paper: a
//!   forecast-driven [`Scaler`] that powers GPUs up and down ahead of
//!   demand swings, with hysteresis, cooldown, provisioning delay and a
//!   scale-down drain window.
//! - [`chaos`] — deterministic fault injection: [`FaultPlan`]s of GPU
//!   failures, brownouts, instance crashes, carbon-feed gaps and forecast
//!   error, all drawn up front from the experiment seed so faulted runs
//!   stay reproducible and chaos-off digests stay bit-identical.
//! - [`control`] — the loop's schedule: [`ControlEpoch`] cadence (sub-hour
//!   capable) and serving [`Fidelity`] (representative window vs full
//!   epoch).
//! - [`cell`] — the per-epoch cell runtime: one cluster's monitor →
//!   scaler → scheduler loop, serving simulator, fault plan and carbon
//!   accounting, stepped once per control epoch by the experiment and by
//!   every regional fleet.
//! - [`experiment`] — the 48-hour evaluation runtime reproducing the
//!   paper's Sec. 5 methodology, including the synchronized BASE reference
//!   and the per-epoch scaling/standby carbon accounting.
//!
//! See `docs/architecture.md` at the workspace root for how these modules
//! sit in the full pipeline, and `docs/parallel-engine.md` for how
//! experiment grids fan out deterministically.

#![warn(missing_docs)]

pub mod anneal;
pub mod autoscale;
pub mod cell;
pub mod chaos;
pub mod control;
pub mod eval;
pub mod experiment;
pub mod graph;
pub mod neighbors;
pub mod objective;
pub mod schedulers;

pub use anneal::{anneal, EvalRecord, OptimizationRun, SaParams, SearchLedger};
pub use autoscale::{FleetState, ScaleReason, Scaler, ScalerConfig, ScalingPolicy};
pub use cell::{CellRuntime, CellTotals, EpochRecord, Rollup};
pub use chaos::{ChaosConfig, CrashEvent, FaultPlan, FaultSpec, GpuKill};
pub use control::{ControlEpoch, EpochSchedule, Fidelity, WindowPlan};
pub use eval::DesEvaluator;
pub use experiment::{BaseYardstick, Experiment, ExperimentConfig, ExperimentOutcome, TraceSource};
pub use graph::ConfigGraph;
pub use neighbors::NeighborSampler;
pub use objective::{MeasuredPoint, Objective};
pub use schedulers::{make_scheduler, Decision, Observation, Scheduler, SchedulerCtx, SchemeKind};
