//! Clover's optimization objective (paper Sec. 4.1).
//!
//! - Eq. 1: `ΔAccuracy = (A − A_base) / A_base × 100%` (always ≤ 0; the
//!   baseline hosts the highest-quality variant everywhere).
//! - Eq. 2: `ΔCarbon = (C_base − E · ci) / C_base × 100%`, where `C_base` is
//!   the baseline's gCO₂ per request at a reference intensity and `E · ci`
//!   the candidate's per-request carbon at the *current* intensity.
//! - Eq. 3: `f = λ · ΔCarbon + (1 − λ) · ΔAccuracy`, maximized subject to
//!   `L(x) ≤ L_tail` (Eqs. 4–5).
//! - Eq. 6: the simulated-annealing energy
//!   `h(x) = −f(x) · min(1, L_tail / L(x))`, which smoothly punishes SLA
//!   violation.
//!
//! The optional accuracy-loss ceiling (Fig. 14b's "enforcing accuracy
//! limit" mode) is implemented as a smooth penalty on `f`, so providers can
//! cap the accuracy traded away regardless of λ.

use clover_carbon::{CarbonIntensity, Energy};

/// What an evaluation of a candidate configuration measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// Mixture accuracy, percent.
    pub accuracy_pct: f64,
    /// IT energy per request, joules.
    pub energy_per_request_j: f64,
    /// p95 end-to-end latency, seconds.
    pub p95_latency_s: f64,
}

/// The Clover objective with its baselines and SLA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Carbon-vs-accuracy weight λ ∈ [0, 1] (paper default 0.5).
    pub lambda: f64,
    /// Baseline accuracy `A_base`, percent (largest variant's accuracy).
    pub a_base_pct: f64,
    /// Baseline carbon per request `C_base`, gCO₂/request (baseline energy
    /// per request × reference carbon intensity).
    pub c_base_g_per_req: f64,
    /// SLA: p95 tail-latency target `L_tail`, seconds.
    pub l_tail_s: f64,
    /// Optional maximum allowed accuracy loss, percent (Fig. 14b mode).
    pub accuracy_floor_pct: Option<f64>,
}

impl Objective {
    /// Penalty slope applied per percent of accuracy loss beyond the floor.
    pub const FLOOR_PENALTY: f64 = 100.0;

    /// Creates an objective with the paper's defaults (λ = 0.5, no accuracy
    /// ceiling).
    pub fn new(a_base_pct: f64, c_base_g_per_req: f64, l_tail_s: f64) -> Self {
        Objective {
            lambda: 0.5,
            a_base_pct,
            c_base_g_per_req,
            l_tail_s,
            accuracy_floor_pct: None,
        }
    }

    /// Sets λ.
    ///
    /// # Panics
    /// Panics outside [0, 1].
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        self.lambda = lambda;
        self
    }

    /// Sets the maximum allowed accuracy loss (percent).
    pub fn with_accuracy_floor(mut self, max_loss_pct: f64) -> Self {
        assert!(max_loss_pct >= 0.0);
        self.accuracy_floor_pct = Some(max_loss_pct);
        self
    }

    /// Eq. 1: relative accuracy change, percent (≤ 0).
    pub fn delta_accuracy_pct(&self, accuracy_pct: f64) -> f64 {
        (accuracy_pct - self.a_base_pct) / self.a_base_pct * 100.0
    }

    /// Per-request carbon of a candidate at the current intensity,
    /// gCO₂/request.
    pub fn carbon_per_request_g(energy_per_request_j: f64, ci: CarbonIntensity) -> f64 {
        (Energy::from_joules(energy_per_request_j) * ci).grams()
    }

    /// Eq. 2: relative carbon reduction, percent.
    pub fn delta_carbon_pct(&self, energy_per_request_j: f64, ci: CarbonIntensity) -> f64 {
        let c = Self::carbon_per_request_g(energy_per_request_j, ci);
        (self.c_base_g_per_req - c) / self.c_base_g_per_req * 100.0
    }

    /// Eq. 3 (plus the optional accuracy-ceiling penalty): the objective to
    /// maximize.
    pub fn f(&self, point: &MeasuredPoint, ci: CarbonIntensity) -> f64 {
        let dc = self.delta_carbon_pct(point.energy_per_request_j, ci);
        let da = self.delta_accuracy_pct(point.accuracy_pct);
        let mut f = self.lambda * dc + (1.0 - self.lambda) * da;
        if let Some(floor) = self.accuracy_floor_pct {
            let loss = -da;
            if loss > floor {
                f -= Self::FLOOR_PENALTY * (loss - floor);
            }
        }
        f
    }

    /// Eq. 5: does the point meet the SLA?
    pub fn sla_ok(&self, point: &MeasuredPoint) -> bool {
        point.p95_latency_s <= self.l_tail_s
    }

    /// Eq. 6: the SA energy `h(x) = −f(x) · min(1, L_tail / L(x))`.
    pub fn sa_energy(&self, point: &MeasuredPoint, ci: CarbonIntensity) -> f64 {
        let f = self.f(point, ci);
        let factor = (self.l_tail_s / point.p95_latency_s).min(1.0);
        -f * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> Objective {
        // A_base 84.3%, C_base 1000 g/req for round numbers, SLA 100 ms.
        Objective::new(84.3, 1000.0, 0.1)
    }

    fn point(acc: f64, e_j: f64, p95: f64) -> MeasuredPoint {
        MeasuredPoint {
            accuracy_pct: acc,
            energy_per_request_j: e_j,
            p95_latency_s: p95,
        }
    }

    #[test]
    fn delta_accuracy_is_nonpositive_at_or_below_base() {
        let o = obj();
        assert_eq!(o.delta_accuracy_pct(84.3), 0.0);
        assert!(o.delta_accuracy_pct(80.0) < 0.0);
    }

    #[test]
    fn delta_carbon_tracks_intensity() {
        let o = obj();
        // 1 kWh/request at 500 g/kWh => 500 g/request => 50% reduction.
        let e = 3.6e6;
        assert!(
            (o.delta_carbon_pct(e, CarbonIntensity::from_g_per_kwh(500.0)) - 50.0).abs() < 1e-9
        );
        // At 1000 g/kWh the candidate matches the baseline: 0%.
        assert!(
            o.delta_carbon_pct(e, CarbonIntensity::from_g_per_kwh(1000.0))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn paper_fig6_preference_flip() {
        // Fig. 6: λ = 0.1, C_base = 1000. Config A: E=0.4 kWh/req, ΔAcc=-4;
        // config B: E=1.2 kWh/req, ΔAcc=-2. At ci=500 A wins; at ci=100 B wins.
        let o = Objective::new(100.0, 1000.0, 1.0).with_lambda(0.1);
        let a = point(96.0, 0.4 * 3.6e6, 0.5);
        let b = point(98.0, 1.2 * 3.6e6, 0.5);
        let hi = CarbonIntensity::from_g_per_kwh(500.0);
        let lo = CarbonIntensity::from_g_per_kwh(100.0);
        // Paper's table: at ci=500 f(A)=4.4; at ci=100 f(A)=6.0, f(B)=7.0.
        // (The figure prints f(B, ci=500)=3.2, but Eq. 3 gives
        // 0.1*40 + 0.9*(-2) = 2.2 — a typo in the paper; we pin the formula.)
        assert!((o.f(&a, hi) - 4.4).abs() < 1e-9, "f(A,hi)={}", o.f(&a, hi));
        assert!((o.f(&b, hi) - 2.2).abs() < 1e-9, "f(B,hi)={}", o.f(&b, hi));
        assert!((o.f(&a, lo) - 6.0).abs() < 1e-9);
        assert!((o.f(&b, lo) - 7.0).abs() < 1e-9);
        assert!(o.f(&a, hi) > o.f(&b, hi), "A preferred at high ci");
        assert!(o.f(&b, lo) > o.f(&a, lo), "B preferred at low ci");
    }

    #[test]
    fn sa_energy_penalizes_sla_violation() {
        let o = obj();
        let good = point(84.0, 100.0, 0.05); // meets SLA
        let bad = point(84.0, 100.0, 0.2); // violates by 2x
        let ci = CarbonIntensity::from_g_per_kwh(300.0);
        assert!(o.f(&good, ci) > 0.0);
        // Same f, but h must be worse (higher) for the violator.
        assert!(o.sa_energy(&bad, ci) > o.sa_energy(&good, ci));
        // Meeting SLA: h = -f exactly.
        assert!((o.sa_energy(&good, ci) + o.f(&good, ci)).abs() < 1e-12);
    }

    #[test]
    fn lambda_extremes() {
        let ci = CarbonIntensity::from_g_per_kwh(300.0);
        let frugal = point(70.0, 10.0, 0.05); // cheap but inaccurate
        let accurate = point(84.3, 5000.0, 0.05); // accurate but costly
        let carbon_only = obj().with_lambda(1.0);
        assert!(carbon_only.f(&frugal, ci) > carbon_only.f(&accurate, ci));
        let accuracy_only = obj().with_lambda(0.0);
        assert!(accuracy_only.f(&accurate, ci) > accuracy_only.f(&frugal, ci));
    }

    #[test]
    fn accuracy_floor_penalty() {
        let ci = CarbonIntensity::from_g_per_kwh(300.0);
        let o = obj().with_lambda(0.9).with_accuracy_floor(1.0);
        // ~5% accuracy loss: far beyond the 1% ceiling. Energies chosen so
        // the lossy config saves 90% carbon and the compliant one 50%
        // (C_base = 1000 g/req at ci = 300 corresponds to 1.2e7 J/req).
        let lossy = point(80.0, 1.2e6, 0.05);
        let within = point(83.6, 6.0e6, 0.05); // ~0.8% loss
        assert!(o.f(&within, ci) > o.f(&lossy, ci));
        // Without the floor, λ=0.9 would prefer the frugal lossy config.
        let o_free = obj().with_lambda(0.9);
        assert!(o_free.f(&lossy, ci) > o_free.f(&within, ci));
    }

    #[test]
    #[should_panic]
    fn lambda_out_of_range_panics() {
        let _ = obj().with_lambda(1.5);
    }
}
