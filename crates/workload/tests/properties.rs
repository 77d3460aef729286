//! Property tests for the workload subsystem, as deterministic seed sweeps:
//!
//! 1. every arrival process hits its target mean rate within tolerance,
//! 2. identical seeds reproduce identical arrival streams (and different
//!    seeds differ),
//! 3. trace replay round-trips through the CSV trace I/O, including via an
//!    actual file on disk.

use clover_simkit::{SimRng, SimTime};
use clover_workload::{ArrivalTrace, Workload, WorkloadKind};

/// A recorded trace with day-like structure: alternating busy and quiet
/// stretches over ten minutes.
fn recorded_trace(seed: u64) -> ArrivalTrace {
    let mut rng = SimRng::new(seed);
    let mut times = Vec::new();
    let mut t = 0.0;
    while t < 600.0 {
        let busy = ((t / 60.0) as u64).is_multiple_of(2);
        let rate = if busy { 8.0 } else { 1.5 };
        t += rng.exponential(rate);
        if t < 600.0 {
            times.push(t);
        }
    }
    ArrivalTrace::new(times, 600.0)
}

fn sweep_kinds(seed: u64) -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Poisson,
        WorkloadKind::diurnal(),
        WorkloadKind::mmpp(),
        WorkloadKind::flash_crowd(),
        WorkloadKind::Replay {
            trace: recorded_trace(seed),
            looping: true,
        },
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
        for kind in sweep_kinds(900 + i as u64) {
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
    for kind in sweep_kinds(7) {
        let wl = Workload::new(kind, 50.0);
        let origin = SimTime::from_hours(5.0);
        for seed in [1u64, 99, 12345] {
            let a = arrivals(&wl, origin, 1800.0, seed);
            let b = arrivals(&wl, origin, 1800.0, seed);
            assert_eq!(a, b, "{} seed {seed}", wl.label());
            assert!(!a.is_empty(), "{} seed {seed}: no arrivals", wl.label());
        }
        // Different seeds give different streams — except trace replay,
        // which is deterministic by design.
        let x = arrivals(&wl, origin, 1800.0, 1);
        let y = arrivals(&wl, origin, 1800.0, 2);
        if matches!(wl.kind(), WorkloadKind::Replay { .. }) {
            assert_eq!(x, y, "replay must ignore the seed");
        } else {
            assert_ne!(x, y, "{}: seed 2 repeated seed 1", wl.label());
        }
    }
}

#[test]
fn trace_replay_round_trips_through_csv() {
    let trace = recorded_trace(42);
    // In-memory round trip is exact.
    let parsed = ArrivalTrace::from_csv(&trace.to_csv()).expect("parses");
    assert_eq!(trace, parsed);

    // Through a file on disk, then replayed: the regenerated workload
    // produces the identical arrival stream.
    let path = std::env::temp_dir().join("clover_workload_roundtrip_test.csv");
    trace.write_csv(&path).expect("writes");
    let reread = ArrivalTrace::read_csv(&path).expect("reads");
    std::fs::remove_file(&path).ok();
    assert_eq!(trace, reread);

    let a = Workload::new(
        WorkloadKind::Replay {
            trace,
            looping: true,
        },
        80.0,
    );
    let b = Workload::new(
        WorkloadKind::Replay {
            trace: reread,
            looping: true,
        },
        80.0,
    );
    let origin = SimTime::from_secs(250.0);
    assert_eq!(
        arrivals(&a, origin, 900.0, 3),
        arrivals(&b, origin, 900.0, 3)
    );
}
