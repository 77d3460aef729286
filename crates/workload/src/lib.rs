//! # clover-workload
//!
//! Traffic generation for the serving simulator: every way requests can
//! arrive at the cluster, behind one deterministic interface.
//!
//! The paper evaluates Clover only under open-loop homogeneous Poisson
//! arrivals (Sec. 5.1). Real inference fleets see much more: diurnal
//! day/night cycles, bursty on/off traffic and flash crowds. This crate
//! owns all of that so the serving, scheduling and autoscaling layers can
//! be exercised under any traffic scenario without knowing how it is
//! generated.
//!
//! ## Architecture
//!
//! - [`ArrivalProcess`] — the point-process interface the simulator pulls
//!   arrivals from: `next_after(now, rng)` returns the next arrival time.
//!   Every implementation is deterministic given a
//!   [`SimRng`](clover_simkit::SimRng) seed.
//! - [`process`] — the implementations:
//!   [`PoissonProcess`] (homogeneous, extracted from the serving
//!   simulator's original hardcoded path), [`NhppProcess`] (non-homogeneous
//!   Poisson via Lewis–Shedler thinning over a [`RateCurve`]) and
//!   [`MmppProcess`] (two-state Markov-modulated Poisson: calm/burst).
//! - [`rate`] — [`RateCurve`]: constant, diurnal sinusoid and flash-crowd
//!   (periodic trapezoid spike) shapes with exact instantaneous lookup and
//!   numeric window means.
//! - [`descriptor`] — [`WorkloadKind`] (the serializable scenario
//!   parameterization that rides inside experiment configs) and
//!   [`Workload`] (a kind bound to a base rate), whose forecast queries —
//!   `rate_at(t)`, windowed means and peaks — schedulers use to plan
//!   capacity.
//!
//! ## Conventions
//!
//! All kinds are **normalized to a base rate**: the long-run mean arrival
//! rate of every process equals the `base_rps` the [`Workload`] was built
//! with, so experiments stay comparable across scenarios — the same total
//! demand, shaped differently.
//!
//! Processes are created per measurement window via
//! [`Workload::process_from`], with the window's origin on the global
//! simulation clock; rate curves are therefore sampled in global time
//! while the serving simulator keeps its window-local clock.
//!
//! ```
//! use clover_workload::{Workload, WorkloadKind};
//! use clover_simkit::{SimRng, SimTime};
//!
//! let wl = Workload::new(WorkloadKind::diurnal(), 100.0);
//! // Forecast: expected demand 6 simulated hours in.
//! let expected = wl.rate_at(SimTime::from_hours(6.0));
//! assert!(expected > 0.0);
//! // Generator view: deterministic arrivals for a window starting at 6 h.
//! let mut rng = SimRng::new(7);
//! let mut process = wl.process_from(SimTime::from_hours(6.0));
//! let first = process.next_after(SimTime::ZERO, &mut rng).unwrap();
//! assert!(first.as_secs() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod process;
pub mod rate;

pub use descriptor::{Workload, WorkloadKind};
pub use process::{ArrivalProcess, MmppProcess, NhppProcess, PoissonProcess};
pub use rate::RateCurve;
