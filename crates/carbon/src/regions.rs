//! Synthetic regional carbon-intensity generators.
//!
//! The paper evaluates on real 2021 traces from two grid operators (Fig. 4,
//! Fig. 8): California ISO in March and September, and the UK ESO in March.
//! Those feeds are not available offline, so this module generates traces
//! that reproduce their documented structure:
//!
//! - **CISO March**: strong solar "duck curve" — intensity collapses toward
//!   ~100 gCO₂/kWh around midday as solar floods the grid, then spikes to
//!   ~350 in the evening ramp. Large (>200 gCO₂/kWh) intra-day swings.
//! - **CISO September**: the same duck-curve skeleton but with a shallower
//!   midday dip and a lower evening peak (~300).
//! - **ESO March**: wind-dominated — a weaker diurnal demand cycle riding on
//!   slow multi-day wind fronts, swinging between ~50 and ~300.
//!
//! Generators are deterministic given a seed; all schemes in an experiment
//! see the identical trace, which is what preserves the paper's relative
//! comparisons.

use crate::intensity::CarbonIntensity;
use crate::trace::CarbonTrace;
use clover_simkit::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use std::fmt;

/// The grid regions/seasons used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// US California ISO, March (solar duck curve, deep midday dip).
    CisoMarch,
    /// US California ISO, September (shallower dip, lower peak).
    CisoSeptember,
    /// UK Electricity System Operator, March (wind-driven swings).
    EsoMarch,
}

impl Region {
    /// All regions, in the order the paper presents them (Fig. 8).
    pub const ALL: [Region; 3] = [Region::CisoMarch, Region::CisoSeptember, Region::EsoMarch];

    /// Shape parameters for the region's generator.
    fn profile(self) -> RegionProfile {
        match self {
            Region::CisoMarch => RegionProfile {
                base: 230.0,
                solar_depth: 120.0,
                evening_peak: 110.0,
                wind_amplitude: 15.0,
                wind_period_h: 90.0,
                noise_std: 9.0,
                floor: 95.0,
                ceil: 360.0,
            },
            Region::CisoSeptember => RegionProfile {
                base: 210.0,
                solar_depth: 85.0,
                evening_peak: 85.0,
                wind_amplitude: 12.0,
                wind_period_h: 110.0,
                noise_std: 8.0,
                floor: 100.0,
                ceil: 310.0,
            },
            Region::EsoMarch => RegionProfile {
                base: 175.0,
                solar_depth: 30.0,
                evening_peak: 45.0,
                wind_amplitude: 95.0,
                wind_period_h: 55.0,
                noise_std: 12.0,
                floor: 50.0,
                ceil: 305.0,
            },
        }
    }

    /// Generates an hourly trace covering `hours` of simulated time.
    pub fn trace(self, hours: usize, seed: u64) -> CarbonTrace {
        let p = self.profile();
        let mut rng = SimRng::new(seed ^ self.stream_tag());
        // A second phase-shifted wind component keeps multi-day structure
        // from being perfectly periodic.
        let phase2 = rng.range_f64(0.0, TAU);
        let values: Vec<CarbonIntensity> = (0..=hours)
            .map(|h| {
                let hour_of_day = (h % 24) as f64;
                let t = h as f64;
                let solar = solar_dip(hour_of_day);
                let evening = evening_ramp(hour_of_day);
                let wind = (TAU * t / p.wind_period_h).sin()
                    + 0.5 * (TAU * t / (p.wind_period_h * 2.3) + phase2).sin();
                let raw = p.base - p.solar_depth * solar + p.evening_peak * evening
                    - p.wind_amplitude * wind
                    + rng.normal_with(0.0, p.noise_std);
                CarbonIntensity::from_g_per_kwh(raw.clamp(p.floor, p.ceil))
            })
            .collect();
        CarbonTrace::new(SimDuration::from_hours(1.0), values)
    }

    /// The 48-hour evaluation trace (Fig. 8 setup).
    pub fn eval_trace(self, seed: u64) -> CarbonTrace {
        self.trace(48, seed)
    }

    /// The trace a run of `horizon_hours` serves under: it covers the
    /// horizon but never less than the 48-hour evaluation span, so a
    /// run of up to 48 hours samples exactly [`Region::eval_trace`].
    pub fn run_trace(self, horizon_hours: f64, seed: u64) -> CarbonTrace {
        self.trace((horizon_hours.ceil() as usize).max(48), seed)
    }

    /// The 14-day motivation trace (Fig. 4 setup).
    pub fn motivation_trace(self, seed: u64) -> CarbonTrace {
        self.trace(14 * 24, seed)
    }

    fn stream_tag(self) -> u64 {
        match self {
            Region::CisoMarch => 0x11,
            Region::CisoSeptember => 0x22,
            Region::EsoMarch => 0x33,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::CisoMarch => "US CISO March",
            Region::CisoSeptember => "US CISO September",
            Region::EsoMarch => "UK ESO March",
        };
        f.write_str(s)
    }
}

/// Per-region generator coefficients (all in gCO₂/kWh except the period).
struct RegionProfile {
    base: f64,
    solar_depth: f64,
    evening_peak: f64,
    wind_amplitude: f64,
    wind_period_h: f64,
    noise_std: f64,
    floor: f64,
    ceil: f64,
}

/// Bell-shaped solar-generation factor peaking at 13:00, zero at night.
fn solar_dip(hour_of_day: f64) -> f64 {
    let x = (hour_of_day - 13.0) / 3.5;
    (-0.5 * x * x).exp()
}

/// Evening demand ramp factor peaking around 19:30.
fn evening_ramp(hour_of_day: f64) -> f64 {
    let x = (hour_of_day - 19.5) / 2.2;
    (-0.5 * x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_simkit::SimTime;

    #[test]
    fn deterministic_per_seed() {
        let a = Region::CisoMarch.eval_trace(42);
        let b = Region::CisoMarch.eval_trace(42);
        for (x, y) in a.samples().zip(b.samples()) {
            assert_eq!(x.1, y.1);
        }
        let c = Region::CisoMarch.eval_trace(43);
        let diffs = a
            .samples()
            .zip(c.samples())
            .filter(|(x, y)| x.1 != y.1)
            .count();
        assert!(diffs > 40);
    }

    #[test]
    fn ciso_march_range_matches_paper() {
        let t = Region::CisoMarch.eval_trace(1);
        assert!(t.min().g_per_kwh() >= 90.0, "min {}", t.min());
        assert!(t.max().g_per_kwh() <= 365.0, "max {}", t.max());
        // The paper's Fig. 8 CISO March axis spans roughly 100..350.
        assert!(t.max().g_per_kwh() - t.min().g_per_kwh() > 150.0);
    }

    #[test]
    fn ciso_march_has_midday_dip() {
        let t = Region::CisoMarch.eval_trace(3);
        let midday = t.at(SimTime::from_hours(13.0)).g_per_kwh();
        let evening = t.at(SimTime::from_hours(20.0)).g_per_kwh();
        assert!(
            evening > midday + 80.0,
            "evening {evening} vs midday {midday}"
        );
    }

    #[test]
    fn intra_day_swing_exceeds_200() {
        // Motivation Opportunity 3: >200 gCO2/kWh swings within half a day.
        let t = Region::CisoMarch.motivation_trace(7);
        assert!(t.max_swing_within(SimDuration::from_hours(12.0)) > 200.0);
    }

    #[test]
    fn eso_march_is_wind_driven() {
        let t = Region::EsoMarch.eval_trace(11);
        assert!(t.min().g_per_kwh() >= 45.0);
        assert!(t.max().g_per_kwh() <= 310.0);
        // Wind swings give ESO a wider relative range than a pure diurnal
        // pattern; check it actually moves.
        assert!(t.max().g_per_kwh() - t.min().g_per_kwh() > 100.0);
    }

    #[test]
    fn september_peak_below_march_peak() {
        let mar = Region::CisoMarch.motivation_trace(5);
        let sep = Region::CisoSeptember.motivation_trace(5);
        assert!(sep.max().g_per_kwh() <= mar.max().g_per_kwh());
    }

    #[test]
    fn trace_lengths() {
        assert_eq!(Region::CisoMarch.eval_trace(0).len(), 49);
        assert_eq!(Region::EsoMarch.motivation_trace(0).len(), 14 * 24 + 1);
        assert_eq!(Region::CisoMarch.run_trace(6.0, 0).len(), 49);
        assert_eq!(Region::CisoMarch.run_trace(71.5, 0).len(), 73);
    }

    #[test]
    fn regions_differ_from_each_other() {
        let a = Region::CisoMarch.eval_trace(9);
        let b = Region::EsoMarch.eval_trace(9);
        let same = a
            .samples()
            .zip(b.samples())
            .filter(|(x, y)| (x.1.g_per_kwh() - y.1.g_per_kwh()).abs() < 1.0)
            .count();
        assert!(same < 10);
    }

    #[test]
    fn display_names() {
        assert_eq!(Region::CisoMarch.to_string(), "US CISO March");
        assert_eq!(Region::EsoMarch.to_string(), "UK ESO March");
    }
}
