//! # clover-mig
//!
//! Multi-Instance GPU (MIG) substrate for the Clover reproduction.
//!
//! The paper partitions NVIDIA A100 40GB GPUs with MIG: each GPU is split
//! into slices of five types (7g/4g/3g/2g/1g), in one of 19 supported
//! configurations (paper Fig. 1), and every slice hosts one inference
//! service instance. This crate models exactly the parts of that hardware
//! the scheduler can observe and control:
//!
//! - [`slice`](mod@slice) — the five slice types with their compute-unit and memory
//!   capacities, and [`SliceCensus`] aggregates.
//! - [`config`] — the table of 19 MIG partition configurations.
//! - [`cluster`] — the cluster state: the paper's `x_p` optimization
//!   variable ([`Partitioning`]) plus the reconfiguration cost model
//!   (drain + repartition + model reload) that the paper includes in all
//!   reported results.
//! - [`power`] — the calibrated A100 power model (static + per-unit dynamic
//!   power with underutilization overhead) from which the carbon savings of
//!   partitioning emerge.
//! - [`feasibility`] — decomposition of aggregate slice censuses back into
//!   per-GPU configurations, the realizability check behind Clover's
//!   configuration-graph compaction.

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod feasibility;
pub mod power;
pub mod slice;

pub use cluster::{GpuId, Partitioning, ReconfigCost, Slice, SliceId};
pub use config::MigConfig;
pub use feasibility::Packer;
pub use power::PowerModel;
pub use slice::{SliceCensus, SliceType};
