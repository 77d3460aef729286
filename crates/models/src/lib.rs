//! # clover-models
//!
//! The model-variant zoo of the Clover reproduction, with the performance
//! models that stand in for real inference on the paper's A100 testbed.
//!
//! - [`variant`] — model variants/families and the ordinal `x_v` encoding,
//!   including per-variant memory footprints and the OOM fit rule.
//! - [`zoo`] — Table 1 of the paper: YOLOv5 (MS COCO), ALBERT v2 (SQuADv2)
//!   and EfficientNet (ImageNet), with their published accuracy numbers.
//! - [`perf`] — calibrated latency and energy models (Amdahl scaling over
//!   MIG compute units with per-variant saturation points).
//! - [`accuracy`] — mixture accuracy: the served-count weighting every
//!   measured accuracy in the workspace goes through.

#![warn(missing_docs)]

pub mod accuracy;
pub mod perf;
pub mod variant;
pub mod zoo;

pub use accuracy::served_weighted_accuracy;
pub use perf::PerfModel;
pub use variant::{ModelFamily, ModelVariant, VariantId};
pub use zoo::Application;
