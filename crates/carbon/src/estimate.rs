//! Physical-significance estimates (paper §5.2.1).
//!
//! The paper translates Clover's per-request carbon saving into everyday
//! equivalents: "Clover can help save about 170 kg of CO₂ per day. This
//! translates to the amount of carbon emitted by a gasoline car traveling
//! 680 km or the amount of carbon saved by not burning 85 kg of coal every
//! day." This module reproduces that back-of-the-envelope calculation with
//! the same EPA factors.

use crate::intensity::CarbonMass;
use serde::{Deserialize, Serialize};

/// EPA factor: grams of CO₂ emitted per kilometre by an average gasoline
/// passenger vehicle (≈400 g/mile).
pub const GASOLINE_CAR_G_PER_KM: f64 = 250.0;

/// EPA factor: kilograms of CO₂ emitted per kilogram of coal burned.
pub const COAL_KG_CO2_PER_KG: f64 = 2.0;

/// Everyday-equivalent framing of a daily carbon saving.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SavingsEstimate {
    /// Requests served per day in the scenario.
    pub requests_per_day: f64,
    /// Carbon saved per request, grams.
    pub saving_g_per_request: f64,
    /// Total daily saving.
    pub daily_saving_kg: f64,
    /// Kilometres a gasoline car would drive to emit the same mass.
    pub gasoline_car_km: f64,
    /// Kilograms of coal whose combustion emits the same mass.
    pub coal_kg: f64,
}

impl SavingsEstimate {
    /// Computes the equivalences for a per-request saving applied to a daily
    /// request volume.
    pub fn from_per_request(saving_g_per_request: f64, requests_per_day: f64) -> Self {
        assert!(saving_g_per_request >= 0.0 && requests_per_day >= 0.0);
        let daily = CarbonMass::from_grams(saving_g_per_request * requests_per_day);
        SavingsEstimate {
            requests_per_day,
            saving_g_per_request,
            daily_saving_kg: daily.kg(),
            gasoline_car_km: daily.grams() / GASOLINE_CAR_G_PER_KM,
            coal_kg: daily.kg() / COAL_KG_CO2_PER_KG,
        }
    }

    /// The paper's own scenario: 25 million inferences per day with a saving
    /// of 6.77 × 10⁻³ gCO₂ per request.
    pub fn paper_scenario() -> Self {
        Self::from_per_request(6.77e-3, 25e6 /* 25 M inferences/day */)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_reproduces_headline_numbers() {
        let est = SavingsEstimate::paper_scenario();
        // Paper: ~170 kg/day, ~680 km, ~85 kg coal.
        assert!(
            (est.daily_saving_kg - 169.25).abs() < 0.5,
            "daily {}",
            est.daily_saving_kg
        );
        assert!(
            (est.gasoline_car_km - 677.0).abs() < 10.0,
            "km {}",
            est.gasoline_car_km
        );
        assert!((est.coal_kg - 84.6).abs() < 1.0, "coal {}", est.coal_kg);
    }

    #[test]
    fn zero_saving_is_zero_everything() {
        let est = SavingsEstimate::from_per_request(0.0, 1e9);
        assert_eq!(est.daily_saving_kg, 0.0);
        assert_eq!(est.gasoline_car_km, 0.0);
        assert_eq!(est.coal_kg, 0.0);
    }

    #[test]
    fn scales_linearly_with_volume() {
        let a = SavingsEstimate::from_per_request(1.0, 1000.0);
        let b = SavingsEstimate::from_per_request(1.0, 2000.0);
        assert!((b.daily_saving_kg - 2.0 * a.daily_saving_kg).abs() < 1e-12);
    }
}
