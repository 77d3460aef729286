//! Property-based invariants of the serving simulator under arbitrary
//! deployments and loads.
//!
//! Written as deterministic seed sweeps (the container has no registry
//! access for a property-testing framework): random deployments and
//! utilizations are derived from the sweep seed.

use clover::core::schedulers::random_raw_deployment;
use clover::models::zoo::Application;
use clover::models::PerfModel;
use clover::serving::{analytic, ServingCarry, ServingSim};
use clover::simkit::{SimDuration, SimRng};
use clover::workload::PoissonProcess;

/// Request conservation, latency sanity and energy positivity hold for
/// any random deployment and load.
#[test]
fn window_metrics_invariants() {
    let family = Application::ImageClassification.family();
    let perf = PerfModel::a100();
    for case in 0u64..24 {
        let seed = case * 131 + 11;
        let util_pct = 10 + (case * 97) % 110; // 10..120%
        let mut rng = SimRng::new(seed);
        let d = random_raw_deployment(&family, 3, &mut rng);
        let cap = analytic::estimate(&family, &perf, &d, 1.0).capacity_rps;
        let rate = cap * util_pct as f64 / 100.0;
        let mut sim = ServingSim::new(family.clone(), perf, d.clone(), seed);
        let w = sim.run_window(
            rate,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );

        // Conservation: everything that arrived was served or dropped
        // (allow one in-flight boundary case).
        assert!(w.served + w.dropped <= w.arrived + 1);
        let per_variant: u64 = w.per_variant_served.iter().sum();
        assert_eq!(per_variant, w.served);

        if w.served > 0 {
            // Latency ordering: mean <= p95 <= max (histogram estimates are
            // within 1% relative error). A serving window must report a
            // measured tail; only zero-served windows may omit it.
            let p95 = w.p95_latency_s().expect("served window has a p95");
            assert!(w.latency_hist.mean() <= p95 * 1.02);
            assert!(p95 <= w.latency_hist.max() * 1.02);
            // Latency cannot undercut the fastest possible service time.
            let fastest = d
                .instances()
                .iter()
                .map(|&(v, s)| perf.service_time(family.variant(v), s).as_secs())
                .fold(f64::INFINITY, f64::min);
            assert!(w.latency_hist.mean() >= fastest * 0.5);
            // Mixture accuracy lies within the family's range.
            let acc = w.accuracy_pct(&family).unwrap();
            assert!(acc >= family.smallest().accuracy_pct - 1e-9);
            assert!(acc <= family.accuracy_base() + 1e-9);
        }

        // Energy components are non-negative and total power is bounded by
        // the cluster's peak.
        assert!(w.dynamic_energy_j >= 0.0);
        assert!(w.idle_energy_j >= 0.0);
        assert!(w.static_energy_j > 0.0);
        let peak = perf.power.peak_w() * sim.deployment().n_gpus() as f64;
        assert!(w.it_energy_j() / w.span_s <= peak * 1.01);
    }
}

/// The analytic estimator agrees with the DES on stability: if it says
/// a deployment is saturated, the simulator's completions cap out.
#[test]
fn analytic_stability_matches_des() {
    let family = Application::ImageClassification.family();
    let perf = PerfModel::a100();
    for case in 0u64..16 {
        let seed = case * 53 + 3;
        let mut rng = SimRng::new(seed);
        let d = random_raw_deployment(&family, 2, &mut rng);
        let cap = analytic::estimate(&family, &perf, &d, 1.0).capacity_rps;
        let over = cap * 1.5;
        let est = analytic::estimate(&family, &perf, &d, over);
        assert!(!est.stable);
        let mut sim = ServingSim::new(family.clone(), perf, d, seed);
        let epoch = SimDuration::from_secs(20.0);
        let mut arrivals = PoissonProcess::new(over);
        let (w, _) = sim.run_epoch_continuous(&mut arrivals, epoch, ServingCarry::default());
        // Overloaded: an epoch cannot complete more than capacity allows
        // within it (with slack for service-time jitter).
        assert!(w.served as f64 <= cap * 1.2 * epoch.as_secs());
    }
}
