//! Units for carbon accounting.
//!
//! The paper defines the operational carbon footprint as
//! `Carbon = Energy × Carbon Intensity` (Sec. 2). These newtypes make that
//! equation type-checked: multiplying an [`Energy`] by a [`CarbonIntensity`]
//! is the only way to produce a [`CarbonMass`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3.6e6;

/// Grid carbon intensity in gCO₂/kWh.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonIntensity(f64);

impl CarbonIntensity {
    /// Creates an intensity from gCO₂/kWh.
    ///
    /// # Panics
    /// Panics if negative or non-finite.
    pub fn from_g_per_kwh(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "invalid carbon intensity: {v}");
        CarbonIntensity(v)
    }

    /// Value in gCO₂/kWh.
    pub fn g_per_kwh(self) -> f64 {
        self.0
    }

    /// Relative change from `other`, as a fraction of `other`
    /// (e.g. 0.05 = 5%). Returns infinity when `other` is zero and self is not.
    pub fn relative_change_from(self, other: CarbonIntensity) -> f64 {
        if other.0 == 0.0 {
            if self.0 == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.0 - other.0).abs() / other.0
        }
    }
}

/// An amount of energy.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64); // stored in joules

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates energy from joules.
    ///
    /// # Panics
    /// Panics if negative or non-finite.
    pub fn from_joules(j: f64) -> Self {
        assert!(j.is_finite() && j >= 0.0, "invalid energy: {j} J");
        Energy(j)
    }

    /// Creates energy from a power level held for a duration.
    pub fn from_power(watts: f64, duration: clover_simkit::SimDuration) -> Self {
        Self::from_joules(watts * duration.as_secs())
    }

    /// Value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Value in kilowatt-hours.
    pub fn kwh(self) -> f64 {
        self.0 / JOULES_PER_KWH
    }
}

/// A mass of emitted CO₂.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonMass(f64); // stored in grams

impl CarbonMass {
    /// Zero emissions.
    pub const ZERO: CarbonMass = CarbonMass(0.0);

    /// Creates a mass from grams of CO₂.
    ///
    /// # Panics
    /// Panics if negative or non-finite.
    pub fn from_grams(g: f64) -> Self {
        assert!(g.is_finite() && g >= 0.0, "invalid carbon mass: {g} g");
        CarbonMass(g)
    }

    /// Value in grams.
    pub fn grams(self) -> f64 {
        self.0
    }

    /// Value in kilograms.
    pub fn kg(self) -> f64 {
        self.0 / 1e3
    }
}

impl Mul<CarbonIntensity> for Energy {
    type Output = CarbonMass;
    /// `Carbon = Energy × Carbon Intensity` — the paper's Sec. 2 definition.
    fn mul(self, ci: CarbonIntensity) -> CarbonMass {
        CarbonMass::from_grams(self.kwh() * ci.g_per_kwh())
    }
}

impl Mul<Energy> for CarbonIntensity {
    type Output = CarbonMass;
    fn mul(self, e: Energy) -> CarbonMass {
        e * self
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, k: f64) -> Energy {
        Energy::from_joules(self.0 * k)
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl Add for CarbonMass {
    type Output = CarbonMass;
    fn add(self, rhs: CarbonMass) -> CarbonMass {
        CarbonMass(self.0 + rhs.0)
    }
}

impl AddAssign for CarbonMass {
    fn add_assign(&mut self, rhs: CarbonMass) {
        self.0 += rhs.0;
    }
}

impl Sub for CarbonMass {
    type Output = CarbonMass;
    fn sub(self, rhs: CarbonMass) -> CarbonMass {
        CarbonMass::from_grams(self.0 - rhs.0)
    }
}

impl Sum for CarbonMass {
    fn sum<I: Iterator<Item = CarbonMass>>(iter: I) -> CarbonMass {
        iter.fold(CarbonMass::ZERO, Add::add)
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2/kWh", self.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1e3 {
            write!(f, "{:.2} J", self.0)
        } else {
            write!(f, "{:.4} kWh", self.kwh())
        }
    }
}

impl fmt::Display for CarbonMass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1e3 {
            write!(f, "{:.3} gCO2", self.0)
        } else {
            write!(f, "{:.3} kgCO2", self.kg())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_simkit::SimDuration;

    #[test]
    fn carbon_equals_energy_times_intensity() {
        let e = Energy::from_joules(7.2e6); // 2 kWh
        let ci = CarbonIntensity::from_g_per_kwh(150.0);
        assert_eq!((e * ci).grams(), 300.0);
        assert_eq!((ci * e).grams(), 300.0);
    }

    #[test]
    fn energy_conversions() {
        assert_eq!(Energy::from_joules(3.6e6).kwh(), 1.0);
        let p = Energy::from_power(100.0, SimDuration::from_hours(1.0));
        assert!((p.kwh() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_sums() {
        let total: Energy = vec![Energy::from_joules(1.0), Energy::from_joules(2.0)]
            .into_iter()
            .sum();
        assert_eq!(total.joules(), 3.0);
        let mut m = CarbonMass::from_grams(5.0);
        m += CarbonMass::from_grams(2.0);
        assert_eq!(m.grams(), 7.0);
        assert_eq!((m - CarbonMass::from_grams(3.0)).grams(), 4.0);
        assert_eq!((Energy::from_joules(2.0) * 3.0).joules(), 6.0);
    }

    #[test]
    fn relative_change() {
        let a = CarbonIntensity::from_g_per_kwh(100.0);
        let b = CarbonIntensity::from_g_per_kwh(107.0);
        assert!((b.relative_change_from(a) - 0.07).abs() < 1e-12);
        assert!((a.relative_change_from(b) - 7.0 / 107.0).abs() < 1e-12);
        let zero = CarbonIntensity::from_g_per_kwh(0.0);
        assert_eq!(zero.relative_change_from(zero), 0.0);
        assert_eq!(a.relative_change_from(zero), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn negative_carbon_mass_sub_panics() {
        let _ = CarbonMass::from_grams(1.0) - CarbonMass::from_grams(2.0);
    }

    #[test]
    fn display() {
        assert_eq!(
            format!("{}", CarbonIntensity::from_g_per_kwh(123.45)),
            "123.5 gCO2/kWh"
        );
        assert_eq!(format!("{}", Energy::from_joules(10.0)), "10.00 J");
        assert_eq!(format!("{}", CarbonMass::from_grams(2000.0)), "2.000 kgCO2");
    }
}
