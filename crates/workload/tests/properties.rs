//! Property tests for the workload subsystem, as deterministic seed sweeps:
//!
//! 1. every arrival process hits its target mean rate within tolerance,
//! 2. identical seeds reproduce identical arrival streams (and different
//!    seeds differ).

use clover_simkit::{SimRng, SimTime};
use clover_workload::{Workload, WorkloadKind};

fn sweep_kinds() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Poisson,
        WorkloadKind::diurnal(),
        WorkloadKind::mmpp(),
        WorkloadKind::flash_crowd(),
    ]
}

/// Drains arrivals over `[0, horizon_s)` with the given seed.
fn arrivals(wl: &Workload, origin: SimTime, horizon_s: f64, seed: u64) -> Vec<f64> {
    let mut p = wl.process_from(origin);
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    while let Some(t) = p.next_after(now, &mut rng) {
        if t.as_secs() >= horizon_s {
            break;
        }
        out.push(t.as_secs());
        now = t;
    }
    out
}

#[test]
fn every_process_hits_its_target_mean_rate() {
    for (i, base) in [25.0, 60.0, 140.0].into_iter().enumerate() {
        for kind in sweep_kinds() {
            let wl = Workload::new(kind, base);
            // MMPP averages over stochastic bursts, so it needs a longer
            // horizon than the deterministic-rate kinds.
            let horizon = match wl.kind() {
                WorkloadKind::Mmpp { .. } => 86_400.0,
                _ => 7_200.0,
            };
            let n = arrivals(&wl, SimTime::ZERO, horizon, 1000 + i as u64).len();
            let measured = n as f64 / horizon;
            let expected = wl.windowed_mean(
                SimTime::ZERO,
                clover_simkit::SimDuration::from_secs(horizon),
            );
            assert!(
                (measured - expected).abs() / expected < 0.06,
                "{} @ base {base}: measured {measured:.2} expected {expected:.2}",
                wl.label()
            );
            // Over a whole number of periods (24 h covers every kind in
            // the sweep), the forecast must agree with the declared base
            // rate — that is what "normalized to the base rate" means.
            let daily =
                wl.windowed_mean(SimTime::ZERO, clover_simkit::SimDuration::from_hours(24.0));
            assert!(
                (daily - base).abs() / base < 0.02,
                "{} @ base {base}: daily forecast {daily:.2}",
                wl.label()
            );
        }
    }
}

#[test]
fn identical_seeds_reproduce_identical_streams() {
    for kind in sweep_kinds() {
        let wl = Workload::new(kind, 50.0);
        let origin = SimTime::from_hours(5.0);
        for seed in [1u64, 99, 12345] {
            let a = arrivals(&wl, origin, 1800.0, seed);
            let b = arrivals(&wl, origin, 1800.0, seed);
            assert_eq!(a, b, "{} seed {seed}", wl.label());
            assert!(!a.is_empty(), "{} seed {seed}: no arrivals", wl.label());
        }
        // Different seeds give different streams.
        let x = arrivals(&wl, origin, 1800.0, 1);
        let y = arrivals(&wl, origin, 1800.0, 2);
        assert_ne!(x, y, "{}: seed 2 repeated seed 1", wl.label());
    }
}
