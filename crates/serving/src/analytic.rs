//! Steady-state analytic estimator.
//!
//! ORACLE's exhaustive offline profiling and Clover's neighbor pre-filter
//! both need cheap estimates of what a deployment would do under a given
//! load, without paying for a full discrete-event window. This module
//! approximates the heterogeneous-server FIFO system with an M/M/c queue
//! whose `c` servers each run at the deployment's average per-instance
//! capacity:
//!
//! - arrival split: work-conserving dispatch serves instances roughly in
//!   proportion to their capacity, so utilization `ρ = λ / Σ capacityᵢ`;
//! - waiting time: Erlang-C probability of queueing with exponential decay
//!   for the wait tail;
//! - p95 sojourn: the p95 queue wait plus the capacity-weighted p95 of
//!   service times (including jitter);
//! - energy: capacity-weighted dynamic energy per request plus the static
//!   and idle draws amortized over the request rate.
//!
//! The estimator is intentionally approximate — the DES is the ground truth
//! — but it agrees qualitatively (stability threshold, monotonicity) and
//! within tens of percent at moderate load, which the tests pin down.

use crate::deployment::Deployment;
use crate::sim::SERVICE_JITTER_SIGMA;
use clover_models::{ModelFamily, PerfModel};
use serde::{Deserialize, Serialize};

/// Analytic steady-state estimate for one deployment at one arrival rate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AnalyticEstimate {
    /// True when the system is stable (utilization < 1).
    pub stable: bool,
    /// Offered utilization `λ / Σ capacity`.
    pub utilization: f64,
    /// Aggregate service capacity, req/s.
    pub capacity_rps: f64,
    /// Mean end-to-end latency, seconds (`f64::INFINITY` when unstable).
    pub mean_latency_s: f64,
    /// p95 end-to-end latency, seconds (`f64::INFINITY` when unstable).
    pub p95_latency_s: f64,
    /// Expected mixture accuracy, percent.
    pub accuracy_pct: f64,
    /// Expected IT energy per request, joules (static+idle amortized).
    pub energy_per_request_j: f64,
}

/// Erlang-C probability that an arrival must wait, for an M/M/c queue with
/// `c` servers and offered load `a = λ/μ` (in Erlangs).
fn erlang_c(c: usize, a: f64) -> f64 {
    // Iterative Erlang-B, then convert to Erlang-C.
    let mut b = 1.0;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    let rho = a / c as f64;
    b / (1.0 - rho + rho * b)
}

/// Computes the analytic estimate for `deployment` at `rate_rps`.
pub fn estimate(
    family: &ModelFamily,
    perf: &PerfModel,
    deployment: &Deployment,
    rate_rps: f64,
) -> AnalyticEstimate {
    let instances = deployment.instances();
    let m = instances.len();
    assert!(m > 0, "empty deployment");

    let mut cap_sum = 0.0;
    let mut acc_weighted = 0.0;
    let mut dyn_energy_weighted = 0.0;
    let mut idle_w_sum = 0.0;
    let mut service_times: Vec<(f64, f64)> = Vec::with_capacity(m); // (service_s, cap)
    for &(v, slice) in &instances {
        let variant = family.variant(v);
        let s = perf.service_time(variant, slice).as_secs();
        let cap = 1.0 / s;
        cap_sum += cap;
        acc_weighted += variant.accuracy_pct * cap;
        dyn_energy_weighted += perf.request_energy_j(variant, slice) * cap;
        idle_w_sum += perf.power.idle_slice_w(slice);
        service_times.push((s, cap));
    }
    let accuracy_pct = acc_weighted / cap_sum;
    let utilization = rate_rps / cap_sum;
    let stable = utilization < 1.0;

    // Capacity-weighted p95 of mean service times, inflated by the p95 of
    // the lognormal jitter.
    service_times.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let target = 0.95 * cap_sum;
    let mut seen = 0.0;
    let mut service_p95 = service_times.last().expect("non-empty").0;
    for &(s, cap) in &service_times {
        seen += cap;
        if seen >= target {
            service_p95 = s;
            break;
        }
    }
    let jitter_p95 =
        (1.645 * SERVICE_JITTER_SIGMA - 0.5 * SERVICE_JITTER_SIGMA * SERVICE_JITTER_SIGMA).exp();
    let service_p95 = service_p95 * jitter_p95;
    let mean_service = m as f64 / cap_sum;

    let (mean_latency_s, p95_latency_s) = if stable {
        // Homogenized M/M/c: c = m servers at rate μ = cap_sum / m.
        let mu = cap_sum / m as f64;
        let a = rate_rps / mu;
        let p_wait = erlang_c(m, a);
        let drain = cap_sum - rate_rps; // (cμ − λ)
        let mean_wait = p_wait / drain;
        // P(Wq > t) = p_wait · exp(−(cμ−λ)t); solve for the 95th percentile.
        let wait_p95 = if p_wait > 0.05 {
            (p_wait / 0.05).ln() / drain
        } else {
            0.0
        };
        (mean_wait + mean_service, wait_p95 + service_p95)
    } else {
        (f64::INFINITY, f64::INFINITY)
    };

    // Energy: dynamic (capacity-weighted mixture) + amortized static + idle.
    let dyn_per_req = dyn_energy_weighted / cap_sum;
    let static_w = perf.power.gpu_static_w() * deployment.n_gpus() as f64;
    let idle_w = idle_w_sum * (1.0 - utilization.min(1.0));
    let effective_rate = rate_rps.min(cap_sum);
    let energy_per_request_j = dyn_per_req + (static_w + idle_w) / effective_rate;

    AnalyticEstimate {
        stable,
        utilization,
        capacity_rps: cap_sum,
        mean_latency_s,
        p95_latency_s,
        accuracy_pct,
        energy_per_request_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ServingSim;
    use clover_mig::{MigConfig, Partitioning};
    use clover_models::zoo::efficientnet;
    use clover_models::VariantId;
    use clover_simkit::SimDuration;

    #[test]
    fn erlang_c_known_values() {
        // Single server: Erlang C equals utilization.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-9);
        // Load -> 0: no waiting; load -> c: always waiting.
        assert!(erlang_c(4, 0.01) < 1e-4);
        assert!(erlang_c(4, 3.999) > 0.95);
    }

    #[test]
    fn stability_threshold() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let d = Deployment::base(&fam, 2);
        let cap = estimate(&fam, &perf, &d, 1.0).capacity_rps;
        assert!(estimate(&fam, &perf, &d, cap * 0.9).stable);
        let over = estimate(&fam, &perf, &d, cap * 1.1);
        assert!(!over.stable);
        assert!(over.p95_latency_s.is_infinite());
    }

    #[test]
    fn latency_monotone_in_load() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let d = Deployment::base(&fam, 4);
        let cap = estimate(&fam, &perf, &d, 1.0).capacity_rps;
        let mut last = 0.0;
        for frac in [0.2, 0.5, 0.8, 0.95] {
            let e = estimate(&fam, &perf, &d, cap * frac);
            assert!(e.p95_latency_s >= last);
            last = e.p95_latency_s;
        }
    }

    #[test]
    fn agrees_with_des_at_moderate_load() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let d = Deployment::base(&fam, 4);
        let cap = estimate(&fam, &perf, &d, 1.0).capacity_rps;
        let rate = cap * 0.6;
        let est = estimate(&fam, &perf, &d, rate);
        let mut sim = ServingSim::new(fam.clone(), perf, d, 42);
        let w = sim.run_window(
            rate,
            SimDuration::from_secs(120.0),
            SimDuration::from_secs(10.0),
        );
        let sim_mean = w.latency_hist.mean();
        let rel_mean = (est.mean_latency_s - sim_mean).abs() / sim_mean;
        assert!(rel_mean < 0.35, "mean mismatch {rel_mean}");
        let sim_p95 = w.p95_latency_s().expect("served");
        let rel_p95 = (est.p95_latency_s - sim_p95).abs() / sim_p95;
        assert!(rel_p95 < 0.5, "p95 mismatch {rel_p95}");
        let e_sim = w.energy_per_request_j().unwrap();
        let rel_e = (est.energy_per_request_j - e_sim).abs() / e_sim;
        assert!(rel_e < 0.35, "energy mismatch {rel_e}");
    }

    #[test]
    fn accuracy_matches_capacity_weighting() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let d = Deployment::co2opt(&fam, 2);
        let e = estimate(&fam, &perf, &d, 10.0);
        assert!((e.accuracy_pct - 79.1).abs() < 1e-9);
    }

    #[test]
    fn pure_deployments_hit_their_variant_accuracy() {
        let fam = efficientnet();
        let d = Deployment::uniform(&fam, 2, MigConfig::FULL, VariantId(3)).unwrap();
        let e = estimate(&fam, &PerfModel::a100(), &d, 10.0);
        assert!((e.accuracy_pct - 84.3).abs() < 1e-12);
    }

    #[test]
    fn capacity_weighting_leans_toward_fast_instances() {
        let fam = efficientnet();
        // One fast small model and one slow large model, each on a whole
        // GPU: the mixture accuracy must sit below the midpoint because
        // the small model serves more traffic.
        let d = Deployment::new(
            &fam,
            Partitioning::uniform(2, MigConfig::FULL),
            vec![VariantId(0), VariantId(3)],
        )
        .unwrap();
        let acc = estimate(&fam, &PerfModel::a100(), &d, 10.0).accuracy_pct;
        let midpoint = (79.1 + 84.3) / 2.0;
        assert!(acc < midpoint, "acc {acc} >= midpoint {midpoint}");
        assert!(acc > 79.1);
    }

    #[test]
    fn energy_per_request_falls_with_load() {
        // Static power amortizes better at higher request rates.
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let d = Deployment::base(&fam, 2);
        let cap = estimate(&fam, &perf, &d, 1.0).capacity_rps;
        let lo = estimate(&fam, &perf, &d, cap * 0.2);
        let hi = estimate(&fam, &perf, &d, cap * 0.8);
        assert!(hi.energy_per_request_j < lo.energy_per_request_j);
    }
}
