//! Energy-to-carbon accounting: the simulated counterpart of the paper's
//! modified `carbontracker` service.
//!
//! A [`CarbonLedger`] integrates device power over simulated time against a
//! time-varying [`CarbonTrace`], applying the datacenter power usage
//! effectiveness [`PUE`]. The paper evaluates with a constant PUE of 1.5
//! (Sec. 5.1) and reports all benefits relative to a baseline so they do
//! not depend on the PUE choice.

use crate::intensity::{CarbonMass, Energy};
use crate::trace::CarbonTrace;
use clover_simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// Datacenter power usage effectiveness, total facility power divided by IT
/// power: the paper's evaluation value (Uptime Institute 2022 survey).
pub const PUE: f64 = 1.5;

/// Integrates energy consumption against a carbon-intensity trace.
///
/// Use [`CarbonLedger::record_power`] for power held constant over an
/// interval (it splits the interval at trace sample boundaries so intensity
/// changes mid-interval are accounted exactly), or
/// [`CarbonLedger::record_energy_at`] for instantaneous charges.
#[derive(Debug, Clone)]
pub struct CarbonLedger {
    trace: Arc<CarbonTrace>,
    it_energy: Energy,
    facility_energy: Energy,
    carbon: CarbonMass,
}

impl CarbonLedger {
    /// Creates a ledger over `trace`. The trace is shared (`Arc`), so
    /// several ledgers over the same trace (scheme and BASE reference of one
    /// experiment) cost no deep copies; a plain `CarbonTrace` still works.
    pub fn new(trace: impl Into<Arc<CarbonTrace>>) -> Self {
        CarbonLedger {
            trace: trace.into(),
            it_energy: Energy::ZERO,
            facility_energy: Energy::ZERO,
            carbon: CarbonMass::ZERO,
        }
    }

    /// Charges `it_watts` of IT power held constant over `[from, from+dur]`,
    /// splitting at trace boundaries so each segment uses its own intensity.
    pub fn record_power(&mut self, from: SimTime, dur: SimDuration, it_watts: f64) {
        assert!(it_watts >= 0.0, "negative power");
        if dur.is_zero() || it_watts == 0.0 {
            return;
        }
        let step = self.trace.step().as_secs();
        let start = from.as_secs();
        let end = start + dur.as_secs();
        let mut cursor = start;
        while cursor < end {
            // Next trace boundary strictly after `cursor`.
            let boundary = ((cursor / step).floor() + 1.0) * step;
            let seg_end = boundary.min(end);
            let seg = SimDuration::from_secs(seg_end - cursor);
            let it = Energy::from_power(it_watts, seg);
            let facility = it * PUE;
            let ci = self.trace.at(SimTime::from_secs(cursor));
            self.it_energy += it;
            self.facility_energy += facility;
            self.carbon += facility * ci;
            cursor = seg_end;
        }
    }

    /// Charges a lump of IT energy at a single instant, using the intensity
    /// published at that instant.
    pub fn record_energy_at(&mut self, at: SimTime, it: Energy) {
        let facility = it * PUE;
        let ci = self.trace.at(at);
        self.it_energy += it;
        self.facility_energy += facility;
        self.carbon += facility * ci;
    }

    /// Total IT (device) energy recorded.
    pub fn it_energy(&self) -> Energy {
        self.it_energy
    }

    /// Total facility energy (IT × [`PUE`]).
    pub fn facility_energy(&self) -> Energy {
        self.facility_energy
    }

    /// Total carbon emitted.
    pub fn carbon(&self) -> CarbonMass {
        self.carbon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_intensity_power_integration() {
        let trace = CarbonTrace::hourly([200.0, 200.0, 200.0]);
        let mut ledger = CarbonLedger::new(trace);
        // 1000 W for 1 h = 1 kWh IT = 1.5 kWh facility = 300 g.
        ledger.record_power(SimTime::ZERO, SimDuration::from_hours(1.0), 1000.0);
        assert!((ledger.it_energy().kwh() - 1.0).abs() < 1e-9);
        assert!((ledger.facility_energy().kwh() - 1.5).abs() < 1e-9);
        assert!((ledger.carbon().grams() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn interval_split_at_trace_boundary() {
        // Intensity doubles at hour 1; an interval straddling the boundary
        // must charge each half at its own intensity.
        let trace = CarbonTrace::hourly([100.0, 300.0]);
        let mut ledger = CarbonLedger::new(trace);
        ledger.record_power(
            SimTime::from_hours(0.5),
            SimDuration::from_hours(1.0),
            1000.0,
        );
        // 0.75 kWh facility @ 100 + 0.75 kWh @ 300 = 75 + 225 = 300 g.
        assert!(
            (ledger.carbon().grams() - 300.0).abs() < 1e-6,
            "{}",
            ledger.carbon()
        );
    }

    #[test]
    fn lump_energy_uses_instant_intensity() {
        let trace = CarbonTrace::hourly([100.0, 400.0]);
        let mut ledger = CarbonLedger::new(trace);
        ledger.record_energy_at(SimTime::from_hours(1.5), Energy::from_joules(9e5));
        // 9e5 J = 0.25 kWh IT × 1.5 = 0.375 kWh facility @ 400 = 150 g.
        assert!((ledger.carbon().grams() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn zero_power_or_duration_is_noop() {
        let trace = CarbonTrace::hourly([100.0]);
        let mut ledger = CarbonLedger::new(trace);
        ledger.record_power(SimTime::ZERO, SimDuration::ZERO, 500.0);
        ledger.record_power(SimTime::ZERO, SimDuration::from_hours(1.0), 0.0);
        assert_eq!(ledger.carbon(), CarbonMass::ZERO);
        assert_eq!(ledger.it_energy(), Energy::ZERO);
    }

    #[test]
    fn split_and_whole_agree_under_constant_intensity() {
        let trace = CarbonTrace::hourly(vec![250.0; 10]);
        let mut a = CarbonLedger::new(trace.clone());
        let mut b = CarbonLedger::new(trace);
        a.record_power(SimTime::ZERO, SimDuration::from_hours(5.0), 123.0);
        for h in 0..5 {
            b.record_power(
                SimTime::from_hours(h as f64),
                SimDuration::from_hours(1.0),
                123.0,
            );
        }
        assert!((a.carbon().grams() - b.carbon().grams()).abs() < 1e-6);
    }
}
