//! # clover-carbon
//!
//! The carbon substrate of the Clover reproduction.
//!
//! The paper drives Clover with live carbon-intensity feeds from the
//! California ISO and the UK Electricity System Operator, and meters energy
//! with a modified `carbontracker`. Neither is available offline, so this
//! crate provides the closest synthetic equivalents:
//!
//! - [`intensity`] — strongly-typed units: [`CarbonIntensity`] (gCO₂/kWh),
//!   [`Energy`] (joules/kWh), [`CarbonMass`] (grams), with the paper's
//!   defining arithmetic `carbon = energy × intensity`.
//! - [`trace`] — time-series container with step/linear lookup.
//! - [`regions`] — deterministic generators reproducing the diurnal and
//!   seasonal shapes of the paper's three traces (US CISO March, US CISO
//!   September, UK ESO March; Figs. 4 and 8).
//! - [`monitor`] — the controller-facing carbon-intensity monitor that fires
//!   when intensity moves more than the paper's 5% threshold since the last
//!   optimization.
//! - [`accounting`] — the carbon ledger: integrates device power over
//!   simulated time against the time-varying trace, applying the paper's
//!   datacenter [`PUE`] of 1.5.
//! - [`estimate`] — the §5.2.1 back-of-the-envelope equivalences
//!   (gasoline-car kilometres, kilograms of coal) using EPA factors.

#![warn(missing_docs)]

pub mod accounting;
pub mod estimate;
pub mod intensity;
pub mod monitor;
pub mod regions;
pub mod trace;

pub use accounting::{CarbonLedger, PUE};
pub use intensity::{CarbonIntensity, CarbonMass, Energy};
pub use monitor::{CarbonMonitor, MonitorEvent, Staleness};
pub use regions::Region;
pub use trace::CarbonTrace;
