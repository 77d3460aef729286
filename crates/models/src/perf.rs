//! Latency and energy models for a variant hosted on a MIG slice.
//!
//! The paper measures these on real hardware; we model them with an
//! Amdahl-style scaling law calibrated against the published MIG
//! characterization literature (including the authors' own MISO work):
//!
//! - **Latency.** One inference on `u` compute units takes
//!   `overhead + t1 · (serial + (1 − serial) / min(u, saturation))`, where
//!   `t1 = GFLOPs / unit_throughput` is the pure compute time on a single
//!   unit. Small variants saturate early (`saturation` small), so giving
//!   them a 7g slice barely helps latency — that is why partitioning costs
//!   little latency for small models (Fig. 3) while starving a large model
//!   hurts a lot.
//! - **Effective units.** The power model charges a busy slice for its
//!   *allocated* units, discounted by how many the model can actually use:
//!   `min(allocated, saturation)`.
//! - **Energy per request** = busy-slice power × service time. Both pieces
//!   come together here so the serving simulator and the analytic estimator
//!   use identical physics.

use crate::variant::ModelVariant;
use clover_mig::{PowerModel, SliceType};
use clover_simkit::SimDuration;
use serde::{Deserialize, Serialize};

/// Calibrated throughput of one MIG compute unit, GFLOP/s, at realistic
/// inference utilization. One A100 ≈ 19.5 TFLOPS peak / 7 units × ~35%
/// achievable utilization ≈ 975 GFLOP/s per unit.
pub const UNIT_GFLOPS_PER_SEC: f64 = 975.0;

/// Performance model binding the zoo's variants to the MIG substrate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// GFLOP/s one compute unit sustains for these workloads.
    pub unit_gflops: f64,
    /// GPU power model used for energy.
    pub power: PowerModel,
}

impl PerfModel {
    /// Default calibration (A100, 35% achievable utilization).
    pub fn a100() -> Self {
        PerfModel {
            unit_gflops: UNIT_GFLOPS_PER_SEC,
            power: PowerModel::a100(),
        }
    }

    /// Pure compute time of one inference on exactly one unit, seconds,
    /// accounting for the variant's achievable utilization at batch 1.
    pub fn compute_time_1u(&self, v: &ModelVariant) -> f64 {
        v.gflops / (self.unit_gflops * v.unit_efficiency)
    }

    /// Compute units the variant effectively exploits on `slice`.
    pub fn effective_units(&self, v: &ModelVariant, slice: SliceType) -> f64 {
        (slice.compute_units() as f64).min(v.saturation_units)
    }

    /// Mean service time of one inference of `v` on `slice`.
    pub fn service_time(&self, v: &ModelVariant, slice: SliceType) -> SimDuration {
        let speedup = self.effective_units(v, slice).max(1.0);
        let t1 = self.compute_time_1u(v);
        let compute = t1 * (v.serial_fraction + (1.0 - v.serial_fraction) / speedup);
        SimDuration::from_secs(v.overhead_secs + compute)
    }

    /// Power drawn by `slice` while serving `v`, watts (dynamic only; the
    /// per-GPU static draw is integrated separately).
    pub fn busy_power_w(&self, v: &ModelVariant, slice: SliceType) -> f64 {
        self.power
            .busy_slice_w(slice, self.effective_units(v, slice))
    }

    /// Dynamic energy of one request, joules.
    pub fn request_energy_j(&self, v: &ModelVariant, slice: SliceType) -> f64 {
        self.busy_power_w(v, slice) * self.service_time(v, slice).as_secs()
    }

    /// Maximum sustainable request rate of one instance, req/s.
    pub fn capacity_rps(&self, v: &ModelVariant, slice: SliceType) -> f64 {
        1.0 / self.service_time(v, slice).as_secs()
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{efficientnet, yolo_v5, Application};

    #[test]
    fn service_time_decreases_with_slice_size() {
        let m = PerfModel::a100();
        for app in Application::ALL {
            let fam = app.family();
            for v in &fam.variants {
                let t1 = m.service_time(v, SliceType::G1);
                let t7 = m.service_time(v, SliceType::G7);
                assert!(t7 <= t1, "{}: t7 {t7} > t1 {t1}", v.name);
            }
        }
    }

    #[test]
    fn small_model_barely_benefits_from_big_slice() {
        let m = PerfModel::a100();
        let b1 = efficientnet();
        let b1 = b1.smallest(); // saturates at 1.5 units
        let t1 = m.service_time(b1, SliceType::G1).as_secs();
        let t7 = m.service_time(b1, SliceType::G7).as_secs();
        assert!(t1 / t7 < 1.35, "B1 speedup {} too large", t1 / t7);
    }

    #[test]
    fn large_model_needs_big_slice() {
        let m = PerfModel::a100();
        let fam = yolo_v5();
        let x6 = fam.largest();
        let t2 = m.service_time(x6, SliceType::G2).as_secs();
        let t7 = m.service_time(x6, SliceType::G7).as_secs();
        assert!(t2 / t7 > 2.0, "x6 speedup only {}", t2 / t7);
    }

    #[test]
    fn base_latencies_plausible() {
        // EfficientNet-B7 on a full GPU should land in the tens of
        // milliseconds; YOLOv5x6 somewhat above it.
        let m = PerfModel::a100();
        let b7fam = efficientnet();
        let b7 = m.service_time(b7fam.largest(), SliceType::G7).as_secs();
        assert!((0.005..0.060).contains(&b7), "B7 latency {b7} s");
        let yfam = yolo_v5();
        let x6 = m.service_time(yfam.largest(), SliceType::G7).as_secs();
        assert!((0.020..0.200).contains(&x6), "x6 latency {x6} s");
    }

    #[test]
    fn small_variant_on_small_slice_saves_energy() {
        // The heart of Opportunity 1: serving with the small variant on a 1g
        // slice must cost far less dynamic energy than the big variant on a
        // full GPU.
        let m = PerfModel::a100();
        let fam = efficientnet();
        let e_small = m.request_energy_j(fam.smallest(), SliceType::G1);
        let e_big = m.request_energy_j(fam.largest(), SliceType::G7);
        assert!(
            e_big / e_small > 5.0,
            "energy ratio only {}",
            e_big / e_small
        );
    }

    #[test]
    fn partitioning_saves_energy_per_request_same_variant() {
        // Opportunity 2 (Fig. 3): same variant, finer slice -> less dynamic
        // energy per request (the slice wastes fewer allocated units).
        let m = PerfModel::a100();
        let fam = efficientnet();
        let v = fam.variant(crate::variant::VariantId(2)); // B5, sat 5
        let e_7g = m.request_energy_j(v, SliceType::G7);
        let e_1g = m.request_energy_j(v, SliceType::G1);
        assert!(e_1g < e_7g, "1g {e_1g} J vs 7g {e_7g} J");
    }

    #[test]
    fn capacity_is_inverse_latency() {
        let m = PerfModel::a100();
        let fam = efficientnet();
        let v = fam.largest();
        let cap = m.capacity_rps(v, SliceType::G7);
        let lat = m.service_time(v, SliceType::G7).as_secs();
        assert!((cap * lat - 1.0).abs() < 1e-9);
    }

    #[test]
    fn effective_units_clamped_to_slice() {
        let m = PerfModel::a100();
        let fam = yolo_v5();
        let x6 = fam.largest(); // saturation 7
        assert_eq!(m.effective_units(x6, SliceType::G2), 2.0);
        assert_eq!(m.effective_units(x6, SliceType::G7), 7.0);
        let fam = efficientnet();
        let b1 = fam.smallest(); // saturation 1.5
        assert_eq!(m.effective_units(b1, SliceType::G7), 1.5);
    }
}
