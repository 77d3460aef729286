//! # clover-simkit
//!
//! Deterministic discrete-event simulation kernel used by every other crate
//! in the Clover reproduction.
//!
//! The paper evaluates Clover on a real five-node A100 testbed over 48
//! wall-clock hours. This crate provides the substrate that lets us replay
//! the same experiments in virtual time: a monotonically advancing simulated
//! clock ([`SimTime`]), a stable-ordering event queue kept as one
//! key-sorted run ([`EventQueue`]), a seedable counter-free PRNG
//! ([`SimRng`]) so every experiment is exactly reproducible, and the
//! latency histogram ([`LatencyHistogram`]) needed to report p95 tail
//! latency over tens of millions of requests without storing them. The
//! [`par`] module adds a std-only scoped thread pool with an
//! order-preserving `par_map`, the engine behind deterministic parallel
//! experiment grids (each cell owns its seed, so parallel output is
//! byte-identical to serial).
//!
//! Nothing in this crate knows about GPUs, carbon, or ML models; it is a
//! general-purpose DES toolkit.

#![warn(missing_docs)]

pub mod events;
pub mod fnv;
pub mod par;
pub mod quantile;
pub mod rng;
pub mod time;

pub use events::{EventKey, EventQueue};
pub use fnv::Fnv1a;
pub use par::{default_threads, par_map, par_map_lpt};
pub use quantile::{ExactQuantiles, LatencyHistogram};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
