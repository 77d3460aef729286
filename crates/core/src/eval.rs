//! Live-system candidate evaluation.
//!
//! Clover's optimization is completely online: every configuration it
//! considers is applied to the serving system and measured on real traffic
//! (paper Sec. 4.2/5.2.2 — the exploration overhead, including SLA
//! violations during exploration, is included in all reported results).
//!
//! [`DesEvaluator`] reproduces that: each evaluation reconfigures the
//! simulated cluster (charging repartition/model-reload downtime), serves a
//! short measurement window with the candidate, and reports the measured
//! accuracy / energy-per-request / p95. The serving metrics of those
//! windows are retained so the experiment runtime can fold exploration
//! traffic into the run totals.

use crate::anneal::EvalOutcome;
use crate::objective::MeasuredPoint;
use clover_mig::ReconfigCost;
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{Deployment, ServingSim, WindowMetrics};
use clover_simkit::SimDuration;
use clover_telemetry::{Phase, ProfilerHandle};
use std::sync::Arc;

/// Evaluates candidate deployments with short live DES windows.
pub struct DesEvaluator {
    family: Arc<ModelFamily>,
    /// Offered load during evaluation, req/s.
    pub rate_rps: f64,
    /// Measurement window per evaluation.
    pub window: SimDuration,
    /// Warmup before measurement.
    pub warmup: SimDuration,
    reconfig: ReconfigCost,
    seed: u64,
    evals_done: u64,
    /// One simulator reused (re-seeded) across evaluations, so each
    /// candidate measurement costs neither a family deep-clone nor fresh
    /// scratch allocations; [`ServingSim::reseed`] makes this bit-identical
    /// to constructing a new simulator per candidate. Its deployment is
    /// the configuration currently applied to the cluster.
    sim: ServingSim,
    /// Serving metrics of every evaluation window, for run accounting.
    pub window_log: Vec<WindowMetrics>,
    /// Optional phase profiler: when set, each candidate measurement is
    /// timed as [`Phase::Search`]. Wall-clock only; never touches results.
    profiler: Option<ProfilerHandle>,
}

impl DesEvaluator {
    /// Default evaluation window (seconds): long enough for a stable p95 at
    /// production rates, short enough that an invocation stays around a
    /// minute of live time.
    pub const DEFAULT_WINDOW_S: f64 = 6.0;
    /// Default warmup (seconds).
    pub const DEFAULT_WARMUP_S: f64 = 1.5;

    /// Creates an evaluator for the given application and load.
    pub fn new(
        family: impl Into<Arc<ModelFamily>>,
        perf: PerfModel,
        rate_rps: f64,
        initial: Deployment,
        seed: u64,
    ) -> Self {
        let family = family.into();
        let sim = ServingSim::new(family.clone(), perf, initial, seed);
        DesEvaluator {
            family,
            rate_rps,
            window: SimDuration::from_secs(Self::DEFAULT_WINDOW_S),
            warmup: SimDuration::from_secs(Self::DEFAULT_WARMUP_S),
            reconfig: ReconfigCost::default_calibration(),
            seed,
            evals_done: 0,
            sim,
            window_log: Vec::new(),
            profiler: None,
        }
    }

    /// Attach (or detach) a phase profiler; candidate measurements are
    /// recorded under [`Phase::Search`].
    pub fn set_profiler(&mut self, profiler: Option<ProfilerHandle>) {
        self.profiler = profiler;
    }

    /// The configuration currently applied.
    pub fn current(&self) -> &Deployment {
        self.sim.deployment()
    }

    /// Applies `deployment` without measuring (end-of-invocation switch to
    /// the chosen configuration). Returns the reconfiguration downtime.
    /// Fleet resizes (autoscaling) are tolerated: only GPUs surviving the
    /// resize are compared (see [`ReconfigCost::fleet_downtime`]).
    pub fn apply(&mut self, deployment: Deployment) -> SimDuration {
        let downtime = self
            .reconfig
            .fleet_downtime(self.current().partitioning(), deployment.partitioning());
        self.sim.set_deployment(deployment);
        downtime
    }

    /// Measures `candidate` on live traffic: reconfigure, serve one window,
    /// report. The cost charged is the reconfiguration downtime plus the
    /// full (warmup + measurement) window.
    pub fn evaluate(&mut self, candidate: &Deployment) -> EvalOutcome {
        let _search = self.profiler.as_ref().map(|p| p.scope(Phase::Search));
        let downtime = self
            .reconfig
            .fleet_downtime(self.current().partitioning(), candidate.partitioning());
        // Variant-only changes still reload models on affected slices.
        let variant_downtime = if downtime.is_zero() && candidate != self.current() {
            self.reconfig.variant_swap_downtime()
        } else {
            SimDuration::ZERO
        };

        self.evals_done += 1;
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.evals_done);
        // Re-seeding the persistent simulator is bit-identical to building
        // `ServingSim::new(family, perf, candidate, seed)` here, but reuses
        // its warm scratch buffers across the invocation's many windows.
        self.sim.reseed(seed);
        self.sim.set_deployment(candidate.clone());
        let metrics = self.sim.run_window(self.rate_rps, self.window, self.warmup);
        let point = MeasuredPoint::of_window(&metrics, &self.family);
        let cost_s = downtime.as_secs()
            + variant_downtime.as_secs()
            + self.warmup.as_secs()
            + self.window.as_secs();
        self.window_log.push(metrics);

        EvalOutcome { point, cost_s }
    }

    /// Drains the retained evaluation-window metrics.
    pub fn take_window_log(&mut self) -> Vec<WindowMetrics> {
        std::mem::take(&mut self.window_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::efficientnet;
    use clover_serving::analytic;

    fn make(rate_frac: f64) -> (DesEvaluator, f64) {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let base = Deployment::base(&fam, 2);
        let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
        let rate = cap * rate_frac;
        (DesEvaluator::new(fam, perf, rate, base, 99), rate)
    }

    #[test]
    fn evaluation_measures_base_plausibly() {
        let (mut ev, _) = make(0.6);
        let fam = efficientnet();
        let base = Deployment::base(&fam, 2);
        let out = ev.evaluate(&base);
        assert!((out.point.accuracy_pct - fam.accuracy_base()).abs() < 1e-9);
        assert!(out.point.energy_per_request_j > 0.0);
        assert!(out.point.p95_latency_s > 0.0 && out.point.p95_latency_s < 1.0);
        // Re-evaluating the already-applied config costs no downtime, only
        // the window (warmup + measurement).
        let out2 = ev.evaluate(&base);
        let window = DesEvaluator::DEFAULT_WINDOW_S + DesEvaluator::DEFAULT_WARMUP_S;
        assert!((out2.cost_s - window).abs() < 1e-9);
    }

    #[test]
    fn reconfiguration_downtime_charged() {
        let (mut ev, _) = make(0.6);
        let fam = efficientnet();
        ev.evaluate(&Deployment::base(&fam, 2));
        let out = ev.evaluate(&Deployment::co2opt(&fam, 2));
        // Repartition (5 s) + 7 model loads (14 s) + 7.5 s window.
        assert!(out.cost_s > 25.0, "cost {}", out.cost_s);
    }

    #[test]
    fn window_log_accumulates_and_drains() {
        let (mut ev, _) = make(0.5);
        let fam = efficientnet();
        ev.evaluate(&Deployment::base(&fam, 2));
        ev.evaluate(&Deployment::co2opt(&fam, 2));
        assert_eq!(ev.window_log.len(), 2);
        let log = ev.take_window_log();
        assert_eq!(log.len(), 2);
        assert!(ev.window_log.is_empty());
        assert!(log[0].served > 0);
    }

    #[test]
    fn apply_switches_without_measuring() {
        let (mut ev, _) = make(0.5);
        let fam = efficientnet();
        let co2 = Deployment::co2opt(&fam, 2);
        let downtime = ev.apply(co2.clone());
        assert!(downtime.as_secs() > 0.0);
        assert_eq!(ev.current(), &co2);
        assert!(ev.window_log.is_empty());
    }
}
