//! Geo-distributed carbon-routed serving: regional fleets and the global
//! router.
//!
//! The single-cluster runtime answers "how should *this* data center serve
//! under *its* grid?". This crate promotes regions to first class and asks
//! the question the paper's motivation data begs: with fleets on several
//! grids whose carbon curves are out of phase (California's solar duck
//! curve against the UK's wind fronts), how much does *routing traffic to
//! where the energy is clean* save, beyond what per-region scheduling
//! already achieves?
//!
//! Three layers:
//!
//! - [`RegionalFleet`] — one region's [`clover_core::CellRuntime`] (carbon
//!   monitor, autoscaler, scheduler, continuous serving simulator, carbon
//!   ledger) under the region's trace, on its own RNG substream;
//! - [`RoutePolicy`] — the six traffic splits named in [`ROUTE_POLICIES`]:
//!   `uniform` (per-region-local, the baseline), `random`, `round-robin`,
//!   `smallest-queue`, and the carbon-aware `carbon-greedy` and
//!   `forecast-aware`;
//! - [`GlobalRouter`] — the multi-region runtime: splits live traffic each
//!   control epoch, migrates backlog across regions on the serving carry
//!   (request ages survive the hop, plus a transfer-latency penalty),
//!   drains regions through
//!   [`clover_core::chaos::FaultSpec::RegionOutage`] windows, and checks
//!   global request conservation every epoch.
//!
//! Determinism contract: everything derives from [`RouterConfig::seed`].
//! Fleets draw their master seeds from isolated substreams, the router's
//! policy RNG is salted separately, and region traces are keyed by the
//! experiment seed alone — so [`GlobalRouter::run_cells_with`] over a grid
//! of configs is byte-identical serial or parallel, and
//! `figures fig_georouting` pins it.

#![warn(missing_docs)]

pub mod fleet;
pub mod global;
pub mod policy;

pub use fleet::{FleetSpec, NoArrivals, RegionalFleet, PLANNING_FLOOR_W};
pub use global::{
    GlobalOutcome, GlobalRouter, RouterConfig, RouterConfigBuilder, RouterEpochPoint,
};
pub use policy::{make_route_policy, RegionSnapshot, RouteCtx, RoutePolicy, ROUTE_POLICIES};
