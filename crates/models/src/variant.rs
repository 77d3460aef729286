//! Model variants and families.
//!
//! A model *family* (paper Sec. 2) is one architecture trained at several
//! capacity points — e.g. EfficientNet-B1..B7 — whose variants trade
//! accuracy against compute. Clover encodes the variants of a family as
//! ordinal data (`x_v`); this module is that encoding plus the per-variant
//! physical characteristics (parameters, FLOPs, memory, parallel
//! scalability) that the latency/energy models consume.

use clover_mig::SliceType;
use std::fmt;

/// Ordinal identifier of a variant within its family (0 = smallest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariantId(pub u8);

/// CUDA context + framework overhead resident on every slice, GB.
pub const RUNTIME_OVERHEAD_GB: f64 = 1.2;

/// One member of a model family.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVariant {
    /// Published variant name (e.g. "EfficientNet-B7").
    pub name: &'static str,
    /// Ordinal position within the family, 0 = smallest/lowest quality.
    pub id: VariantId,
    /// Parameter count, millions.
    pub params_m: f64,
    /// Compute per inference, GFLOPs.
    pub gflops: f64,
    /// Published task accuracy, percent (top-1 / mAP50-95 / F1 — see the
    /// family's metric name).
    pub accuracy_pct: f64,
    /// Weight memory on device, GB.
    pub weights_gb: f64,
    /// Peak activation memory during one inference, GB.
    pub activations_gb: f64,
    /// Compute units beyond which the variant stops scaling (its kernels
    /// cannot fill more SMs). 1..=7.
    pub saturation_units: f64,
    /// Fraction of one compute unit's peak FLOP/s the variant sustains at
    /// batch-1 inference (small models are launch/memory-bound and cannot
    /// saturate even a single unit; large dense models approach 1.0).
    pub unit_efficiency: f64,
    /// Amdahl serial fraction: part of the inference that does not speed up
    /// with more compute units (launch overhead, memory-bound layers).
    pub serial_fraction: f64,
    /// Fixed per-request overhead independent of the device, seconds
    /// (pre/post-processing, host-device transfer).
    pub overhead_secs: f64,
}

impl ModelVariant {
    /// Total device memory required to host one instance, GB.
    pub fn memory_gb(&self) -> f64 {
        self.weights_gb + self.activations_gb + RUNTIME_OVERHEAD_GB
    }

    /// True when an instance fits in the given MIG slice type. Clover
    /// disables the corresponding variant↔slice graph edge when this is
    /// false (paper Sec. 4.2: "disabling the edge connection ... if
    /// out-of-memory errors would occur").
    pub fn fits(&self, slice: SliceType) -> bool {
        self.memory_gb() <= slice.memory_gb()
    }
}

impl fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// A family of model variants implementing one application.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFamily {
    /// Architecture name (e.g. "EfficientNet").
    pub architecture: &'static str,
    /// Dataset the accuracy numbers refer to.
    pub dataset: &'static str,
    /// Name of the accuracy metric (e.g. "top-1", "mAP50-95", "F1").
    pub metric: &'static str,
    /// Variants, ordered smallest (lowest quality) first.
    pub variants: Vec<ModelVariant>,
}

impl ModelFamily {
    /// Number of variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// True when the family has no variants (never true for zoo families).
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Variant by ordinal id.
    ///
    /// # Panics
    /// Panics for out-of-range ids.
    pub fn variant(&self, id: VariantId) -> &ModelVariant {
        &self.variants[id.0 as usize]
    }

    /// The smallest (lowest-quality) variant — what CO2OPT deploys.
    pub fn smallest(&self) -> &ModelVariant {
        &self.variants[0]
    }

    /// The largest (highest-quality) variant — the BASE deployment and the
    /// paper's accuracy baseline `A_base`.
    pub fn largest(&self) -> &ModelVariant {
        self.variants.last().expect("non-empty family")
    }

    /// Iterates variant ids.
    pub fn ids(&self) -> impl Iterator<Item = VariantId> {
        (0..self.variants.len() as u8).map(VariantId)
    }

    /// Variant ids that fit in the given slice type.
    pub fn fitting(&self, slice: SliceType) -> Vec<VariantId> {
        self.ids()
            .filter(|&id| self.variant(id).fits(slice))
            .collect()
    }

    /// The accuracy baseline `A_base`: the largest variant's accuracy.
    pub fn accuracy_base(&self) -> f64 {
        self.largest().accuracy_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_family() -> ModelFamily {
        ModelFamily {
            architecture: "Toy",
            dataset: "ToySet",
            metric: "top-1",
            variants: vec![
                ModelVariant {
                    name: "Toy-S",
                    id: VariantId(0),
                    params_m: 5.0,
                    gflops: 1.0,
                    accuracy_pct: 70.0,
                    weights_gb: 0.02,
                    activations_gb: 0.3,
                    saturation_units: 2.0,
                    unit_efficiency: 0.3,
                    serial_fraction: 0.15,
                    overhead_secs: 0.002,
                },
                ModelVariant {
                    name: "Toy-L",
                    id: VariantId(1),
                    params_m: 100.0,
                    gflops: 40.0,
                    accuracy_pct: 85.0,
                    weights_gb: 0.4,
                    activations_gb: 4.5,
                    saturation_units: 7.0,
                    unit_efficiency: 1.0,
                    serial_fraction: 0.15,
                    overhead_secs: 0.005,
                },
            ],
        }
    }

    #[test]
    fn memory_and_fit() {
        let fam = toy_family();
        let small = fam.smallest();
        assert!((small.memory_gb() - 1.52).abs() < 1e-12);
        assert!(small.fits(SliceType::G1));
        let large = fam.largest();
        assert!((large.memory_gb() - 6.1).abs() < 1e-12);
        assert!(!large.fits(SliceType::G1));
        assert!(large.fits(SliceType::G2));
    }

    #[test]
    fn ordering_and_lookup() {
        let fam = toy_family();
        assert_eq!(fam.len(), 2);
        assert_eq!(fam.variant(VariantId(1)).name, "Toy-L");
        assert_eq!(fam.smallest().id, VariantId(0));
        assert_eq!(fam.largest().id, VariantId(1));
        assert_eq!(fam.accuracy_base(), 85.0);
        assert_eq!(fam.ids().count(), 2);
    }

    #[test]
    fn fitting_filters_oom() {
        let fam = toy_family();
        assert_eq!(fam.fitting(SliceType::G1), vec![VariantId(0)]);
        assert_eq!(fam.fitting(SliceType::G7), vec![VariantId(0), VariantId(1)]);
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(toy_family().smallest().to_string(), "Toy-S");
    }
}
