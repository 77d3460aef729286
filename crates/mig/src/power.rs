//! GPU power model.
//!
//! The paper measures wall power with carbontracker on real A100s; we model
//! it. The model captures the two effects Clover exploits (Sec. 3,
//! Opportunity 2):
//!
//! 1. **A non-partitioned GPU cannot be saturated by one model.** While a
//!    slice processes a request, its *allocated* compute units are clocked
//!    and burn power even when the hosted model can only make use of a
//!    fraction of them (its *effective* units). Fine partitioning trims that
//!    waste, which is where the ~30% carbon drop from C1 to C3 in Fig. 3
//!    comes from.
//! 2. **Static power is shared.** Each physical GPU pays a constant static
//!    draw (HBM refresh, leakage, NVLink) regardless of partitioning, so the
//!    per-request static share falls as one GPU hosts more instances.
//!
//! Calibration: an A100 SXM has a 400 W TDP. We attribute 18 W to the
//! static floor and 54.5 W to each fully-utilized compute unit
//! (18 + 7 × 54.5 ≈ 400 W); allocated-but-unusable units draw 12% of their
//! busy power, and idle (allocated, no request) slices draw 3%. These
//! splits are calibrated so the reproduction matches the paper's *relative*
//! results: ≈30% carbon reduction from C1→C3 at equal quality (Fig. 3) and
//! ≈85% for CO2OPT vs BASE (Fig. 10).

use crate::slice::SliceType;

/// Analytic power model for an A100-class GPU under MIG partitioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Constant per-GPU draw, watts (paid regardless of partitioning).
    pub static_w: f64,
    /// Dynamic draw of one fully-utilized compute unit, watts.
    pub unit_w: f64,
    /// Fraction of a busy slice's *allocated-but-not-effective* units' power
    /// that is still drawn (clock/fabric overhead of underutilized units).
    pub allocation_overhead: f64,
    /// Fraction of `unit_w` drawn by an allocated slice that is idle
    /// (model resident, no request in flight).
    pub idle_fraction: f64,
    /// Draw of a powered-off GPU, watts: the board is off, but its host
    /// slot, rails and management controller still leak a trickle. This is
    /// what an autoscaled-away GPU costs, and why powering down beats
    /// leaving a fleet idle (idle still pays `static_w` plus idle slices).
    pub standby_w: f64,
}

impl PowerModel {
    /// Calibrated A100 40GB SXM model.
    pub fn a100() -> Self {
        PowerModel {
            static_w: 18.0,
            unit_w: 54.5,
            allocation_overhead: 0.12,
            idle_fraction: 0.03,
            standby_w: 4.0,
        }
    }

    /// Peak (all units busy and effective) power of one GPU.
    pub fn peak_w(&self) -> f64 {
        self.static_w + 7.0 * self.unit_w
    }

    /// Power drawn by a busy slice, given how many of its allocated units
    /// the hosted model can actually exploit.
    ///
    /// `effective_units` is clamped to the slice's allocation.
    pub fn busy_slice_w(&self, slice: SliceType, effective_units: f64) -> f64 {
        let alloc = slice.compute_units() as f64;
        let eff = effective_units.clamp(0.0, alloc);
        let wasted = alloc - eff;
        self.unit_w * (eff + self.allocation_overhead * wasted)
    }

    /// Power drawn by an allocated slice with no request in flight.
    pub fn idle_slice_w(&self, slice: SliceType) -> f64 {
        self.unit_w * self.idle_fraction * slice.compute_units() as f64
    }

    /// Static power attributed to one GPU.
    pub fn gpu_static_w(&self) -> f64 {
        self.static_w
    }

    /// Standby power of one powered-off GPU (autoscaled out of the fleet).
    pub fn standby_gpu_w(&self) -> f64 {
        self.standby_w
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_about_tdp() {
        let m = PowerModel::a100();
        assert!((m.peak_w() - 400.0).abs() < 2.0, "peak {}", m.peak_w());
    }

    #[test]
    fn saturated_slice_draws_full_allocation() {
        let m = PowerModel::a100();
        let w = m.busy_slice_w(SliceType::G7, 7.0);
        assert!((w - 7.0 * m.unit_w).abs() < 1e-9);
    }

    #[test]
    fn underutilized_big_slice_wastes_power() {
        let m = PowerModel::a100();
        // A model that can only use 2 units on a 7g slice...
        let big = m.busy_slice_w(SliceType::G7, 2.0);
        // ...draws more than the same model fully utilizing a 2g slice.
        let small = m.busy_slice_w(SliceType::G2, 2.0);
        assert!(big > small * 1.2, "big {big} small {small}");
    }

    #[test]
    fn effective_units_clamped() {
        let m = PowerModel::a100();
        assert_eq!(
            m.busy_slice_w(SliceType::G1, 5.0),
            m.busy_slice_w(SliceType::G1, 1.0)
        );
        assert_eq!(
            m.busy_slice_w(SliceType::G2, -1.0),
            m.busy_slice_w(SliceType::G2, 0.0)
        );
    }

    #[test]
    fn standby_below_static_below_idle_gpu() {
        let m = PowerModel::a100();
        assert!(m.standby_gpu_w() > 0.0);
        assert!(m.standby_gpu_w() < m.gpu_static_w());
        // A powered-off GPU draws less than an idle one (static plus the
        // residual of its allocated slices) — the margin autoscaling saves.
        let idle_full = m.gpu_static_w() + m.idle_slice_w(SliceType::G7);
        assert!(m.standby_gpu_w() < idle_full / 4.0);
    }

    #[test]
    fn idle_power_scales_with_allocation() {
        let m = PowerModel::a100();
        assert!(m.idle_slice_w(SliceType::G7) > m.idle_slice_w(SliceType::G1));
        assert!((m.idle_slice_w(SliceType::G1) - m.unit_w * m.idle_fraction).abs() < 1e-9);
    }

    #[test]
    fn idle_below_busy() {
        let m = PowerModel::a100();
        for &s in &SliceType::ALL {
            assert!(m.idle_slice_w(s) < m.busy_slice_w(s, 0.5));
        }
    }
}
