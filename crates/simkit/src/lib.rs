//! # clover-simkit
//!
//! Deterministic discrete-event simulation kernel used by every other crate
//! in the Clover reproduction.
//!
//! The paper evaluates Clover on a real five-node A100 testbed over 48
//! wall-clock hours. This crate provides the substrate that lets us replay
//! the same experiments in virtual time: a monotonically advancing simulated
//! clock ([`SimTime`]), a stable-ordering event heap ([`EventQueue`]), a
//! seedable counter-free PRNG ([`SimRng`]) so every experiment is exactly
//! reproducible, and the streaming statistics (Welford accumulators, P²
//! quantile estimation, latency histograms) needed to report p95 tail
//! latency and energy integrals over tens of millions of requests without
//! storing them. The [`par`] module adds a std-only scoped thread pool with
//! an order-preserving `par_map`, the engine behind deterministic parallel
//! experiment grids (each cell owns its seed, so parallel output is
//! byte-identical to serial).
//!
//! Nothing in this crate knows about GPUs, carbon, or ML models; it is a
//! general-purpose DES toolkit.

#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod par;
pub mod quantile;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Process, Simulation};
pub use events::{EventKey, EventQueue};
pub use par::{default_threads, par_map, par_map_auto, par_map_lpt};
pub use quantile::{ExactQuantiles, LatencyHistogram, P2Quantile};
pub use rng::SimRng;
pub use stats::{Running, TimeWeighted};
pub use time::{SimDuration, SimTime};
