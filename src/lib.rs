//! # Clover: carbon-aware ML inference serving
//!
//! A full reproduction of *"Clover: Toward Sustainable AI with Carbon-Aware
//! Machine Learning Inference Service"* (SC '23) in Rust, built on a
//! trace-driven discrete-event simulation of the paper's A100/MIG testbed.
//!
//! This façade crate re-exports the workspace crates:
//!
//! - [`simkit`] — discrete-event simulation kernel (clock, events, RNG, par)
//! - [`carbon`] — carbon-intensity traces, monitoring, and accounting
//! - [`mig`] — Multi-Instance GPU substrate (slice types, 19 configs, power)
//! - [`models`] — model-variant zoo with latency/energy/accuracy models
//! - [`workload`] — traffic generation: arrival processes (Poisson, diurnal,
//!   MMPP, flash-crowd) and workload descriptors
//! - [`serving`] — inference serving simulator (queue, dispatch, metrics)
//! - [`core`] — the Clover optimizer, controller, and competing schemes
//! - [`router`] — geo-distributed serving: regional fleets and the global
//!   carbon-aware traffic router with its three routing policies
//! - [`telemetry`] — determinism-safe observability: decision journal
//!   (JSONL) and phase profiling
//!
//! ## Quickstart
//!
//! ```
//! use clover::core::control::Fidelity;
//! use clover::core::experiment::{Experiment, ExperimentConfig};
//! use clover::core::schedulers::SchemeKind;
//! use clover::carbon::regions::Region;
//! use clover::models::zoo::Application;
//!
//! let config = ExperimentConfig::builder(Application::ImageClassification)
//!     .scheme(SchemeKind::Clover)
//!     .region(Region::CisoMarch)
//!     .n_gpus(2)
//!     .horizon_hours(2.0)
//!     .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
//!     .seed(7)
//!     .build();
//! let outcome = Experiment::new(config).run();
//! assert!(outcome.carbon_saving_pct > 0.0);
//! ```

#![warn(missing_docs)]

pub use clover_carbon as carbon;
pub use clover_core as core;
pub use clover_mig as mig;
pub use clover_models as models;
pub use clover_router as router;
pub use clover_serving as serving;
pub use clover_simkit as simkit;
pub use clover_telemetry as telemetry;
pub use clover_workload as workload;
