//! Concrete service deployments: the paper's `(x_p, x_v)` pair.
//!
//! A [`Deployment`] binds a cluster [`Partitioning`] (one MIG configuration
//! per GPU, `x_p`) to a variant assignment (one model variant per slice,
//! `x_v`). Every slice hosts exactly one service instance. Constructors for
//! the paper's fixed schemes (BASE and CO2OPT) live here too.

use clover_mig::{MigConfig, Partitioning, SliceCensus, SliceType};
use clover_models::{ModelFamily, VariantId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully specified service configuration: `x_p` plus `x_v`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Deployment {
    partitioning: Partitioning,
    /// Variant per slice, aligned with `partitioning.slices()` order.
    variants: Vec<VariantId>,
}

/// Why a deployment is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentError {
    /// `variants.len()` does not equal the slice count of the partitioning.
    LengthMismatch {
        /// Number of slices in the partitioning.
        slices: usize,
        /// Number of variant assignments supplied.
        variants: usize,
    },
    /// A variant does not fit in the memory of its assigned slice.
    OutOfMemory {
        /// Index of the offending slice.
        slice_index: usize,
        /// The variant that does not fit.
        variant: VariantId,
        /// The slice type it was assigned to.
        slice: SliceType,
    },
    /// A variant id is out of range for the family.
    UnknownVariant(VariantId),
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentError::LengthMismatch { slices, variants } => write!(
                f,
                "variant assignment length {variants} != slice count {slices}"
            ),
            DeploymentError::OutOfMemory {
                slice_index,
                variant,
                slice,
            } => write!(
                f,
                "variant {} does not fit slice {slice} (index {slice_index})",
                variant.0
            ),
            DeploymentError::UnknownVariant(v) => write!(f, "unknown variant id {}", v.0),
        }
    }
}

impl std::error::Error for DeploymentError {}

impl Deployment {
    /// Creates a validated deployment: one variant per slice, every variant
    /// known to the family and within its slice's memory.
    pub fn new(
        family: &ModelFamily,
        partitioning: Partitioning,
        variants: Vec<VariantId>,
    ) -> Result<Self, DeploymentError> {
        let slices = partitioning.slices();
        if slices.len() != variants.len() {
            return Err(DeploymentError::LengthMismatch {
                slices: slices.len(),
                variants: variants.len(),
            });
        }
        for (i, (slice, &v)) in slices.iter().zip(variants.iter()).enumerate() {
            if (v.0 as usize) >= family.len() {
                return Err(DeploymentError::UnknownVariant(v));
            }
            if !family.variant(v).fits(slice.ty) {
                return Err(DeploymentError::OutOfMemory {
                    slice_index: i,
                    variant: v,
                    slice: slice.ty,
                });
            }
        }
        Ok(Deployment {
            partitioning,
            variants,
        })
    }

    /// The paper's BASE scheme: the highest-quality variant on every GPU,
    /// unpartitioned. This is also the accuracy/carbon baseline.
    pub fn base(family: &ModelFamily, n_gpus: usize) -> Self {
        let partitioning = Partitioning::uniform(n_gpus, MigConfig::FULL);
        let largest = family.largest().id;
        Deployment::new(family, partitioning, vec![largest; n_gpus])
            .expect("largest variant always fits a full GPU")
    }

    /// The paper's CO2OPT scheme: the most aggressive partition
    /// (configuration 19) with the smallest variant everywhere.
    pub fn co2opt(family: &ModelFamily, n_gpus: usize) -> Self {
        let partitioning = Partitioning::uniform(n_gpus, MigConfig::FINEST);
        let smallest = family.smallest().id;
        let m = partitioning.total_slices();
        Deployment::new(family, partitioning, vec![smallest; m])
            .expect("smallest variant fits every slice in the zoo")
    }

    /// A uniform deployment: same MIG configuration on every GPU, same
    /// variant on every slice. Returns an error if the variant does not fit
    /// the configuration's smallest slice.
    pub fn uniform(
        family: &ModelFamily,
        n_gpus: usize,
        config: MigConfig,
        variant: VariantId,
    ) -> Result<Self, DeploymentError> {
        let partitioning = Partitioning::uniform(n_gpus, config);
        let m = partitioning.total_slices();
        Deployment::new(family, partitioning, vec![variant; m])
    }

    /// The cluster partitioning (`x_p`).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The per-slice variant assignment (`x_v`).
    pub fn variants(&self) -> &[VariantId] {
        &self.variants
    }

    /// Number of service instances (`m` in the paper).
    pub fn n_instances(&self) -> usize {
        self.variants.len()
    }

    /// Number of GPUs (`n` in the paper).
    pub fn n_gpus(&self) -> usize {
        self.partitioning.n_gpus()
    }

    /// Iterates `(variant, slice_type)` per instance.
    pub fn instances(&self) -> Vec<(VariantId, SliceType)> {
        self.partitioning
            .slices()
            .iter()
            .zip(self.variants.iter())
            .map(|(s, &v)| (v, s.ty))
            .collect()
    }

    /// Aggregate slice census (the graph's slice side).
    pub fn census(&self) -> SliceCensus {
        self.partitioning.census()
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Deployment({} GPUs, {} instances, {})",
            self.n_gpus(),
            self.n_instances(),
            self.partitioning
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::{efficientnet, yolo_v5};

    #[test]
    fn base_deployment() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 10);
        assert_eq!(d.n_gpus(), 10);
        assert_eq!(d.n_instances(), 10);
        for (v, s) in d.instances() {
            assert_eq!(v, fam.largest().id);
            assert_eq!(s, SliceType::G7);
        }
    }

    #[test]
    fn co2opt_deployment() {
        let fam = efficientnet();
        let d = Deployment::co2opt(&fam, 10);
        assert_eq!(d.n_instances(), 70);
        for (v, s) in d.instances() {
            assert_eq!(v, fam.smallest().id);
            assert_eq!(s, SliceType::G1);
        }
    }

    #[test]
    fn oom_assignment_rejected() {
        let fam = yolo_v5();
        // YOLOv5x6 does not fit a 1g slice.
        let big = fam.largest().id;
        let err = Deployment::uniform(&fam, 1, MigConfig::FINEST, big).unwrap_err();
        assert!(matches!(err, DeploymentError::OutOfMemory { .. }));
    }

    #[test]
    fn length_mismatch_rejected() {
        let fam = efficientnet();
        let p = Partitioning::uniform(2, MigConfig::FULL);
        let err = Deployment::new(&fam, p, vec![VariantId(0)]).unwrap_err();
        assert!(matches!(err, DeploymentError::LengthMismatch { .. }));
    }

    #[test]
    fn unknown_variant_rejected() {
        let fam = efficientnet();
        let p = Partitioning::uniform(1, MigConfig::FULL);
        let err = Deployment::new(&fam, p, vec![VariantId(9)]).unwrap_err();
        assert_eq!(err, DeploymentError::UnknownVariant(VariantId(9)));
    }

    #[test]
    fn edge_counts_match_instances() {
        let fam = efficientnet();
        let p = Partitioning::new(vec![MigConfig::new(3), MigConfig::new(1)]);
        // C3 = [4g, 2g, 1g] + C1 = [7g]
        let d = Deployment::new(
            &fam,
            p,
            vec![VariantId(1), VariantId(0), VariantId(0), VariantId(3)],
        )
        .unwrap();
        assert_eq!(
            d.instances(),
            vec![
                (VariantId(1), SliceType::G4),
                (VariantId(0), SliceType::G2),
                (VariantId(0), SliceType::G1),
                (VariantId(3), SliceType::G7),
            ]
        );
        assert_eq!(d.instances().len(), d.n_instances());
    }

    #[test]
    fn display() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        assert!(d.to_string().contains("2 GPUs"));
    }
}
