//! Geo-distributed carbon-routed serving: the global router over regional
//! cells.
//!
//! The single-cluster runtime answers "how should *this* data center serve
//! under *its* grid?". This crate promotes regions to first class and asks
//! the question the paper's motivation data begs: with fleets on several
//! grids whose carbon curves are out of phase (California's solar duck
//! curve against the UK's wind fronts), how much does *routing traffic to
//! where the energy is clean* save, beyond what per-region scheduling
//! already achieves?
//!
//! Three parts:
//!
//! - [`RoutePolicy`] — the three traffic splits in [`RoutePolicy::ALL`]:
//!   `uniform` (per-region-local, the baseline) and the carbon-aware
//!   `carbon-greedy` and `forecast-aware`;
//! - [`GlobalRouter`] — the multi-region runtime: steps one
//!   [`clover_core::CellRuntime`] per region (carbon monitor, autoscaler,
//!   scheduler, continuous serving simulator, carbon ledger) under the
//!   region's trace, on its own RNG substream; splits live traffic each
//!   control epoch, migrates backlog across regions on the serving carry
//!   (request ages survive the hop, plus a transfer-latency penalty),
//!   drains regions through
//!   [`clover_core::chaos::FaultSpec::RegionOutage`] windows, and checks
//!   global request conservation every epoch;
//! - [`run_cells_with`] — the one grid entry point: it runs [`Cell`]s of
//!   either kind, single-cluster experiments and routed fleets, side by
//!   side in one pool.
//!
//! Determinism contract: everything derives from [`RouterConfig::seed`].
//! Regional cells draw their master seeds from isolated substreams, the routing
//! policies draw no randomness, and region traces are keyed by the
//! experiment seed alone — so [`run_cells_with`] over a grid of cells is
//! byte-identical serial or parallel, and
//! `figures fig_georouting` pins it.

#![warn(missing_docs)]

pub mod global;
pub mod grid;
pub mod policy;

pub use global::{
    GlobalOutcome, GlobalRouter, RouterConfig, RouterConfigBuilder, RouterEpochPoint,
};
pub use grid::{run_cells_with, Cell, Outcome};
pub use policy::RoutePolicy;
