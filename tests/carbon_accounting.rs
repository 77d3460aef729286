//! Integration tests of the carbon pipeline: traces → monitor → ledger →
//! physical-significance estimates.

use clover::carbon::estimate::SavingsEstimate;
use clover::carbon::{CarbonLedger, CarbonMonitor, CarbonTrace, Energy, Region};
use clover::simkit::{SimDuration, SimTime};

#[test]
fn ledger_matches_hand_computation_over_a_varying_trace() {
    let trace = CarbonTrace::hourly([100.0, 300.0, 200.0]);
    let mut ledger = CarbonLedger::new(trace);
    // 2000 W for 3 hours: 2 kWh IT/hour, 3 kWh facility/hour.
    ledger.record_power(SimTime::ZERO, SimDuration::from_hours(3.0), 2000.0);
    let expected = 3.0 * (100.0 + 300.0 + 200.0);
    assert!((ledger.carbon().grams() - expected).abs() < 1e-6);
    assert!((ledger.it_energy().kwh() - 6.0).abs() < 1e-9);
    assert!((ledger.facility_energy().kwh() - 9.0).abs() < 1e-9);
}

#[test]
fn lump_charging_and_power_charging_agree_within_an_hour() {
    let trace = Region::CisoMarch.eval_trace(4);
    let mut a = CarbonLedger::new(trace.clone());
    let mut b = CarbonLedger::new(trace);
    let at = SimTime::from_hours(5.25);
    // Same energy, charged as a lump vs as constant power within one
    // trace step.
    a.record_energy_at(at, Energy::from_joules(3.6e6));
    b.record_power(at, SimDuration::from_secs(600.0), 6000.0);
    assert!((a.carbon().grams() - b.carbon().grams()).abs() < 1e-6);
}

#[test]
fn monitor_triggers_match_trace_structure() {
    for region in Region::ALL {
        let trace = region.eval_trace(99);
        // Observe every sample boundary, acknowledging each trigger the
        // way the control loop does when it re-plans.
        let mut monitor = CarbonMonitor::new(trace.clone());
        let mut triggers = 0;
        for (t, _) in trace.samples() {
            let ev = monitor.observe(t);
            if ev.triggered {
                monitor.acknowledge(ev.current);
                triggers += 1;
            }
        }
        assert!(
            triggers >= 8,
            "{region}: only {triggers} optimization triggers over 48 h"
        );
    }
}

#[test]
fn paper_estimate_numbers() {
    let est = SavingsEstimate::paper_scenario();
    assert!((est.daily_saving_kg - 169.25).abs() < 1.0);
    assert!((est.gasoline_car_km - 677.0).abs() < 10.0);
    assert!((est.coal_kg - 84.6).abs() < 1.0);
}

#[test]
fn trace_statistics_are_region_plausible() {
    let ciso = Region::CisoMarch.motivation_trace(1);
    let eso = Region::EsoMarch.motivation_trace(1);
    // CISO March has the deeper intra-day swings (solar duck curve).
    assert!(ciso.max_swing_within(SimDuration::from_hours(12.0)) > 200.0);
    // ESO reaches lower absolute intensity (wind-heavy grid).
    assert!(eso.min() < ciso.min());
}
