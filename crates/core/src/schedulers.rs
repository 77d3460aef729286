//! The scheduling schemes.
//!
//! The paper's five schemes (Sec. 5.1):
//!
//! - **BASE** — highest-quality variant on every unpartitioned GPU; never
//!   reconfigures. The accuracy/carbon baseline.
//! - **CO2OPT** — the carbon-aggressive extreme: MIG configuration 19
//!   everywhere, smallest variant on every slice; never reconfigures.
//! - **BLOVER** — Basic-Clover: identical controller, objective, SLA and
//!   termination rule, but searches by sampling the *raw* `(x_p, x_v)` space
//!   uniformly at random instead of annealing in the graph space. Clover's
//!   margin over Blover isolates the value of the graph-based optimization.
//! - **CLOVER** — simulated annealing over GED-bounded graph neighborhoods,
//!   warm-started from the previous invocation's best configuration.
//! - **ORACLE** — exhaustive offline profiling over standardized
//!   configurations (same MIG configuration and variant multiset on every
//!   GPU, as the paper does to bound the search space); switches instantly
//!   and at zero charged cost to the objective-maximizing SLA-compliant
//!   entry whenever the carbon intensity changes. Profiles are kept per
//!   (fleet size, forecast-rate band); a band's table is built the first
//!   time planning lands in it, measured at demand already *observed* in
//!   that band when the [`Scheduler::observe`] feedback hook has seen any
//!   (the forecast rate otherwise). Once built, a table is cached for the
//!   run — there is deliberately no drift-triggered rebuild.
//!
//! Each scheme is a [`Scheduler`] lifecycle object ([`Scheduler::plan`] at
//! each control invocation, [`Scheduler::observe`] after each served
//! epoch) that [`make_scheduler`] builds from its [`SchemeKind`]. The set is
//! closed: adding a scheme means adding a variant and a `make_scheduler`
//! arm. See `docs/control-plane.md`.

use crate::anneal::{anneal, OptimizationRun, SaParams};
use crate::eval::DesEvaluator;
use crate::neighbors::NeighborSampler;
use crate::objective::{MeasuredPoint, Objective};
use clover_carbon::CarbonIntensity;
use clover_mig::{MigConfig, Partitioning, SliceType};
use clover_models::{ModelFamily, PerfModel, VariantId};
use clover_serving::{Deployment, ServingSim, WindowMetrics};
use clover_simkit::{SimDuration, SimRng, SimTime};
use clover_workload::Workload;
use std::fmt;

/// One of the paper's five schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Highest-quality model, unpartitioned GPUs, carbon-unaware.
    Base,
    /// Most aggressive partition + smallest variant, carbon-minimal.
    Co2Opt,
    /// Basic-Clover: random search in the raw configuration space.
    Blover,
    /// Clover: graph-space simulated annealing.
    Clover,
    /// Exhaustive offline profiling with instant switching.
    Oracle,
}

impl SchemeKind {
    /// The paper's five schemes, in presentation order.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Base,
        SchemeKind::Co2Opt,
        SchemeKind::Blover,
        SchemeKind::Clover,
        SchemeKind::Oracle,
    ];

    /// Display name as used in the paper's figures and the journal.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Base => "BASE",
            SchemeKind::Co2Opt => "CO2OPT",
            SchemeKind::Blover => "BLOVER",
            SchemeKind::Clover => "CLOVER",
            SchemeKind::Oracle => "ORACLE",
        }
    }

    /// Resolves a scheme by its label, case-insensitively; `None` for any
    /// other name.
    pub fn parse(name: &str) -> Option<SchemeKind> {
        SchemeKind::ALL
            .into_iter()
            .find(|kind| kind.label().eq_ignore_ascii_case(name))
    }

    /// Whether the scheme reacts to carbon-intensity changes; SLA
    /// violations re-trigger planning only for carbon-aware schemes (the
    /// paper's static baselines never re-plan).
    pub fn is_carbon_aware(self) -> bool {
        !matches!(self, SchemeKind::Base | SchemeKind::Co2Opt)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a scheduler returns from one planning invocation.
pub struct Decision {
    /// The configuration to apply for the coming period.
    pub deployment: Deployment,
    /// The optimization run that produced it (None for schemes that do not
    /// search online).
    pub run: Option<OptimizationRun>,
    /// A short, human-readable annotation for the decision journal: how
    /// the decision came about (warm start vs recovery, profile hit vs
    /// rebuild, …). `None` when there is nothing noteworthy; never fed
    /// back into planning.
    pub note: Option<String>,
}

/// Everything a scheduler sees at planning time.
pub struct SchedulerCtx<'a> {
    /// The application's model family.
    pub family: &'a ModelFamily,
    /// Hardware performance model.
    pub perf: &'a PerfModel,
    /// The objective (λ, baselines, SLA).
    pub objective: &'a Objective,
    /// Carbon intensity right now.
    pub ci: CarbonIntensity,
    /// Global simulation time of this invocation.
    pub now: SimTime,
    /// GPUs the autoscaler currently has powered and serving: schemes
    /// partition *this* fleet, not the provisioned maximum (without
    /// autoscaling the two are equal).
    pub active_gpus: usize,
    /// The offered workload; schedulers query its demand forecast
    /// (`rate_at`, `windowed_mean`, `rate_band`) to plan for the coming
    /// period.
    pub workload: &'a Workload,
    /// Live evaluator (charged measurement windows).
    pub evaluator: &'a mut DesEvaluator,
    /// Scheduler-owned randomness.
    pub rng: &'a mut SimRng,
}

/// What a scheduler is shown after an epoch has actually been served: the
/// measured window and the workload for demand banding. This is the
/// feedback half of the scheduler lifecycle — pure observation, never a
/// chance to change the running configuration.
pub struct Observation<'a> {
    /// Serving metrics of the epoch's measured window (representative
    /// window or the full epoch, per the experiment's fidelity).
    pub metrics: &'a WindowMetrics,
    /// The offered workload (forecast view for rate banding).
    pub workload: &'a Workload,
}

impl Observation<'_> {
    /// Mean measured arrival rate over the window, req/s (`None` for an
    /// empty or zero-length window).
    pub fn observed_rps(&self) -> Option<f64> {
        if self.metrics.span_s > 0.0 && self.metrics.arrived > 0 {
            Some(self.metrics.arrived as f64 / self.metrics.span_s)
        } else {
            None
        }
    }
}

/// A scheme's control-plane lifecycle.
///
/// The experiment runtime invokes [`Scheduler::plan`] at start-up and
/// whenever a control trigger fires (carbon drift, SLA violation, fleet
/// resize), and [`Scheduler::observe`] after every served epoch. `observe`
/// is how a scheme learns from measurements it did not pay for — ORACLE
/// uses it to keep its offline profiles indexed near observed demand.
pub trait Scheduler {
    /// Chooses the configuration for the coming control period.
    fn plan(&mut self, ctx: &mut SchedulerCtx<'_>) -> Decision;

    /// Feedback after an epoch was served with the planned configuration.
    /// Default: ignore it.
    fn observe(&mut self, obs: &Observation<'_>) {
        let _ = obs;
    }
}

/// Builds a fresh scheduler for `kind` over `n_gpus` GPUs. Adding a scheme
/// means adding a [`SchemeKind`] variant and an arm here.
pub fn make_scheduler(
    kind: SchemeKind,
    family: &ModelFamily,
    n_gpus: usize,
    sa: SaParams,
) -> Box<dyn Scheduler> {
    match kind {
        SchemeKind::Base => Box::new(StaticScheduler {
            kind,
            deployment: Deployment::base(family, n_gpus),
        }),
        SchemeKind::Co2Opt => Box::new(StaticScheduler {
            kind,
            deployment: Deployment::co2opt(family, n_gpus),
        }),
        SchemeKind::Blover => Box::new(BloverScheduler { params: sa }),
        SchemeKind::Clover => Box::new(CloverScheduler {
            best: Deployment::base(family, n_gpus),
            params: sa,
            sampler: NeighborSampler::default(),
        }),
        SchemeKind::Oracle => Box::new(OracleScheduler::new()),
    }
}

/// BASE / CO2OPT: a fixed layout. The layout itself never changes, but the
/// fleet it is stamped onto can (autoscaling), so the cached deployment is
/// rebuilt whenever the active GPU count moved.
struct StaticScheduler {
    kind: SchemeKind,
    deployment: Deployment,
}

impl Scheduler for StaticScheduler {
    fn plan(&mut self, ctx: &mut SchedulerCtx<'_>) -> Decision {
        if self.deployment.n_gpus() != ctx.active_gpus {
            self.deployment = match self.kind {
                SchemeKind::Base => Deployment::base(ctx.family, ctx.active_gpus),
                SchemeKind::Co2Opt => Deployment::co2opt(ctx.family, ctx.active_gpus),
                _ => unreachable!("StaticScheduler is only BASE or CO2OPT"),
            };
        }
        Decision {
            deployment: self.deployment.clone(),
            run: None,
            note: None,
        }
    }
}

/// Draws a uniformly random raw `(x_p, x_v)` configuration.
pub fn random_raw_deployment(family: &ModelFamily, n_gpus: usize, rng: &mut SimRng) -> Deployment {
    loop {
        let configs: Vec<MigConfig> = (0..n_gpus)
            .map(|_| MigConfig::new(rng.range_usize(1, MigConfig::COUNT + 1) as u8))
            .collect();
        let partitioning = Partitioning::new(configs);
        let mut ok = true;
        let mut variants = Vec::with_capacity(partitioning.total_slices());
        for ty in partitioning.slice_types() {
            let fitting = family.fitting(ty);
            if fitting.is_empty() {
                ok = false;
                break;
            }
            variants.push(*rng.choose(&fitting));
        }
        if !ok {
            continue;
        }
        if let Ok(d) = Deployment::new(family, partitioning, variants) {
            return d;
        }
    }
}

/// BLOVER: random search in the raw space with Clover's controller,
/// objective and termination rule.
///
/// Unlike Clover, Blover has no compact representation to warm-start from:
/// each invocation searches the raw `(x_p, x_v)` space from scratch and
/// deploys the best configuration that invocation found before the
/// termination rule fired. This is why it "cannot quickly find a
/// near-optimal configuration to keep up with the pace of the changing
/// carbon intensity" (paper Sec. 5.2.2).
struct BloverScheduler {
    params: SaParams,
}

impl Scheduler for BloverScheduler {
    fn plan(&mut self, ctx: &mut SchedulerCtx<'_>) -> Decision {
        let family = ctx.family.clone();
        let n_gpus = ctx.active_gpus;
        let evaluator = &mut *ctx.evaluator;
        let start = random_raw_deployment(&family, n_gpus, ctx.rng);
        let run = anneal(
            start,
            ctx.objective,
            ctx.ci,
            &self.params,
            ctx.rng,
            // Proposal ignores the center: global uniform random sampling.
            move |_center, rng| Some(random_raw_deployment(&family, n_gpus, rng)),
            |candidate| evaluator.evaluate(candidate),
        );
        Decision {
            deployment: run.best.clone(),
            run: Some(run),
            note: None,
        }
    }
}

/// CLOVER: graph-space simulated annealing, warm-started per invocation.
struct CloverScheduler {
    best: Deployment,
    params: SaParams,
    sampler: NeighborSampler,
}

impl Scheduler for CloverScheduler {
    fn plan(&mut self, ctx: &mut SchedulerCtx<'_>) -> Decision {
        let family = ctx.family.clone();
        let sampler = self.sampler;
        let perf = *ctx.perf;
        // A fleet resize invalidates the warm start (deployments are sized
        // to the active fleet): re-seed the walk from BASE on the new size.
        let reseeded = self.best.n_gpus() != ctx.active_gpus;
        if reseeded {
            self.best = Deployment::base(&family, ctx.active_gpus);
        }
        // Plan for the demand the workload forecasts right now (for the
        // paper's Poisson workload this equals the constant offered rate).
        let rate = ctx.workload.planning_rate_at(ctx.now);
        let l_tail = ctx.objective.l_tail_s;
        let evaluator = &mut *ctx.evaluator;
        // Emergency recovery: if the warm-start center cannot even sustain
        // the offered load (e.g. the service was re-provisioned onto fewer
        // GPUs), widen the termination rule so one invocation can climb out
        // of overload instead of stopping after five local misses.
        let start_est = clover_serving::analytic::estimate(&family, &perf, &self.best, rate);
        let recovery = !(start_est.stable && start_est.p95_latency_s <= l_tail * 2.0);
        let params = if recovery {
            SaParams {
                non_improving_stop: self.params.non_improving_stop * 4,
                ..self.params
            }
        } else {
            self.params
        };
        // Graph neighborhoods plus a zero-cost analytic screen keep the SA
        // walk inside SLA-compliant regions (paper Fig. 12b: "the SA
        // algorithm is able to guide Clover towards SLA-compliant graph
        // neighborhoods"): candidates whose steady-state estimate is
        // unstable or far beyond the SLA are re-sampled instead of being
        // measured on live traffic.
        let run = anneal(
            self.best.clone(),
            ctx.objective,
            ctx.ci,
            &params,
            ctx.rng,
            move |center, rng| {
                for _ in 0..8 {
                    let candidate = sampler.sample(&family, center, rng)?;
                    let est = clover_serving::analytic::estimate(&family, &perf, &candidate, rate);
                    if est.stable && est.p95_latency_s <= l_tail * 1.3 {
                        return Some(candidate);
                    }
                }
                sampler.sample(&family, center, rng)
            },
            |candidate| evaluator.evaluate(candidate),
        );
        self.best = run.best.clone();
        let note = match (reseeded, recovery) {
            (false, false) => None,
            (true, false) => Some("warm start re-seeded from BASE (fleet resized)".to_string()),
            (false, true) => Some("emergency recovery (widened termination)".to_string()),
            (true, true) => {
                Some("fleet resized + emergency recovery (widened termination)".to_string())
            }
        };
        Decision {
            deployment: run.best.clone(),
            run: Some(run),
            note,
        }
    }
}

/// One profiled configuration in ORACLE's offline table.
#[derive(Debug, Clone)]
pub struct ProfiledConfig {
    /// The standardized deployment.
    pub deployment: Deployment,
    /// Its measured point (accuracy / energy / p95), intensity-independent.
    pub point: MeasuredPoint,
}

/// Forecast-rate bands ORACLE indexes its offline profiles by.
const ORACLE_RATE_BANDS: usize = 4;

/// EWMA weight for the per-band observed-rate estimate.
const OBSERVED_RATE_ALPHA: f64 = 0.3;

/// One offline table: every standardized configuration over a fleet size,
/// measured at a rate representative of one forecast band.
struct OracleProfile {
    n_gpus: usize,
    band: usize,
    configs: Vec<ProfiledConfig>,
}

/// ORACLE: exhaustive offline profile + instant argmax switching. Profiles
/// are built lazily per (fleet size, forecast-rate band): an autoscaled
/// fleet changes the standardized space the oracle ranges over, and a
/// strongly diurnal workload moves the demand its measurements should be
/// taken at. The [`Scheduler::observe`] hook feeds a per-band EWMA of the
/// *measured* arrival rate, so a profile built after traffic has been seen
/// in its band is measured near real demand rather than the forecast.
struct OracleScheduler {
    profiles: Vec<OracleProfile>,
    observed_rps: [Option<f64>; ORACLE_RATE_BANDS],
}

impl OracleScheduler {
    fn new() -> Self {
        OracleScheduler {
            profiles: Vec::new(),
            observed_rps: [None; ORACLE_RATE_BANDS],
        }
    }

    /// Profiles every standardized configuration over `n_gpus` at
    /// `rate_rps` with a short DES window. This is the paper's
    /// "approximately two weeks" of offline work; it is not charged to the
    /// runtime.
    fn build_profile(
        ctx: &mut SchedulerCtx<'_>,
        n_gpus: usize,
        rate_rps: f64,
    ) -> Vec<ProfiledConfig> {
        // Each candidate owns its seed (`0xACE1 + i`) and a fresh
        // simulator, so the table is a pure function of the fleet size and
        // rate. It is profiled serially: the cell runs inside a grid
        // worker, and only the grid sizes a thread pool.
        let family = ctx.family;
        enumerate_standardized(family, n_gpus)
            .into_iter()
            .enumerate()
            .map(|(i, deployment)| {
                let mut sim = ServingSim::new(
                    family.clone(),
                    *ctx.perf,
                    deployment.clone(),
                    0xACE1_u64.wrapping_add(i as u64),
                );
                let m = sim.run_window(
                    rate_rps,
                    SimDuration::from_secs(DesEvaluator::DEFAULT_WINDOW_S),
                    SimDuration::from_secs(DesEvaluator::DEFAULT_WARMUP_S),
                );
                let point = MeasuredPoint::of_window(&m, family);
                ProfiledConfig { deployment, point }
            })
            .collect()
    }
}

impl Scheduler for OracleScheduler {
    fn plan(&mut self, ctx: &mut SchedulerCtx<'_>) -> Decision {
        let n = ctx.active_gpus;
        // The demand the experiment set the evaluator to plan against.
        let plan_rate = ctx.evaluator.rate_rps;
        let band = ctx.workload.rate_band(plan_rate, ORACLE_RATE_BANDS);
        let mut note = None;
        let idx = match self
            .profiles
            .iter()
            .position(|p| p.n_gpus == n && p.band == band)
        {
            Some(i) => i,
            None => {
                note = Some(format!(
                    "built offline profile for {n} GPUs, rate band {band}"
                ));
                // Measure near current demand: prefer the band's observed
                // arrival-rate EWMA (fed by `observe`) over the plan-time
                // forecast, which is all that exists before first traffic.
                let measure_rate = self.observed_rps[band].unwrap_or(plan_rate);
                let configs = Self::build_profile(ctx, n, measure_rate);
                self.profiles.push(OracleProfile {
                    n_gpus: n,
                    band,
                    configs,
                });
                self.profiles.len() - 1
            }
        };
        let profile = &self.profiles[idx].configs;
        // Select with a safety margin: short profiling windows slightly
        // underestimate the long-run p95, and the oracle must never deploy
        // a violating configuration.
        let margin = 0.93;
        let best = profile
            .iter()
            .filter(|p| p.point.p95_latency_s <= ctx.objective.l_tail_s * margin)
            .max_by(|a, b| {
                ctx.objective
                    .f(&a.point, ctx.ci)
                    .partial_cmp(&ctx.objective.f(&b.point, ctx.ci))
                    .expect("finite objective")
            })
            .unwrap_or(&profile[0]);
        Decision {
            deployment: best.deployment.clone(),
            run: None,
            note,
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        let Some(rate) = obs.observed_rps() else {
            return;
        };
        let band = obs.workload.rate_band(rate, ORACLE_RATE_BANDS);
        let slot = &mut self.observed_rps[band];
        *slot = Some(match *slot {
            Some(prev) => prev + OBSERVED_RATE_ALPHA * (rate - prev),
            None => rate,
        });
    }
}

/// Enumerates the standardized search space: every MIG configuration,
/// uniform across GPUs, crossed with every variant multiset per slice-type
/// group (OOM-infeasible pairings excluded).
pub fn enumerate_standardized(family: &ModelFamily, n_gpus: usize) -> Vec<Deployment> {
    let mut out = Vec::new();
    for config in MigConfig::all() {
        // Group the configuration's slots by slice type, preserving slot
        // order within the config's slice list.
        let slots: &[SliceType] = config.slices();
        let mut group_types: Vec<SliceType> = Vec::new();
        let mut group_sizes: Vec<usize> = Vec::new();
        for &ty in slots {
            if group_types.last() == Some(&ty) {
                *group_sizes.last_mut().expect("non-empty") += 1;
            } else {
                group_types.push(ty);
                group_sizes.push(1);
            }
        }

        // Variant multisets per group.
        let mut per_group: Vec<Vec<Vec<VariantId>>> = Vec::with_capacity(group_types.len());
        let mut feasible = true;
        for (&ty, &k) in group_types.iter().zip(group_sizes.iter()) {
            let fitting = family.fitting(ty);
            if fitting.is_empty() {
                feasible = false;
                break;
            }
            per_group.push(multisets(&fitting, k));
        }
        if !feasible {
            continue;
        }

        // Cross product of group choices.
        let mut stack: Vec<Vec<VariantId>> = vec![Vec::new()];
        for group in &per_group {
            let mut next = Vec::with_capacity(stack.len() * group.len());
            for prefix in &stack {
                for choice in group {
                    let mut v = prefix.clone();
                    v.extend_from_slice(choice);
                    next.push(v);
                }
            }
            stack = next;
        }

        for per_gpu in stack {
            let partitioning = Partitioning::uniform(n_gpus, config);
            let mut variants = Vec::with_capacity(per_gpu.len() * n_gpus);
            for _ in 0..n_gpus {
                variants.extend_from_slice(&per_gpu);
            }
            if let Ok(d) = Deployment::new(family, partitioning, variants) {
                out.push(d);
            }
        }
    }
    out
}

/// All multisets of size `k` over `items` (combinations with replacement),
/// each returned as a sorted vector.
fn multisets(items: &[VariantId], k: usize) -> Vec<Vec<VariantId>> {
    fn rec(
        items: &[VariantId],
        k: usize,
        start: usize,
        current: &mut Vec<VariantId>,
        out: &mut Vec<Vec<VariantId>>,
    ) {
        if k == 0 {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, k - 1, i, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    rec(items, k, 0, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::{efficientnet, yolo_v5};
    use clover_serving::analytic;

    #[test]
    fn multisets_counts() {
        let items: Vec<VariantId> = (0..4).map(VariantId).collect();
        // C(n+k-1, k): C(4,1)=4, C(5,2)=10, C(9,6)... for k=3: C(6,3)=20.
        assert_eq!(multisets(&items, 1).len(), 4);
        assert_eq!(multisets(&items, 2).len(), 10);
        assert_eq!(multisets(&items, 3).len(), 20);
        assert_eq!(multisets(&items[..1], 5).len(), 1);
    }

    #[test]
    fn standardized_space_is_bounded_and_valid() {
        let fam = efficientnet();
        let all = enumerate_standardized(&fam, 2);
        // All 19 configs contribute; the space is in the hundreds, not
        // millions (that is the point of standardizing).
        assert!(all.len() > 100, "{}", all.len());
        assert!(all.len() < 5000, "{}", all.len());
        for d in &all {
            assert_eq!(d.n_gpus(), 2);
            for (v, s) in d.instances() {
                assert!(fam.variant(v).fits(s));
            }
        }
        // BASE and CO2OPT are both in the space.
        assert!(all.iter().any(|d| *d == Deployment::base(&fam, 2)));
        assert!(all.iter().any(|d| *d == Deployment::co2opt(&fam, 2)));
    }

    #[test]
    fn standardized_space_respects_oom() {
        let fam = yolo_v5();
        let all = enumerate_standardized(&fam, 1);
        let big = fam.largest().id;
        for d in &all {
            for (v, s) in d.instances() {
                if v == big {
                    assert_ne!(s, SliceType::G1, "x6 placed on 1g");
                }
            }
        }
    }

    #[test]
    fn random_raw_deployments_are_valid() {
        let fam = yolo_v5();
        let mut rng = SimRng::new(5);
        for _ in 0..50 {
            let d = random_raw_deployment(&fam, 3, &mut rng);
            assert_eq!(d.n_gpus(), 3);
            for (v, s) in d.instances() {
                assert!(fam.variant(v).fits(s));
            }
        }
    }

    fn ctx_fixture(
        rate_frac: f64,
    ) -> (
        ModelFamily,
        PerfModel,
        Objective,
        Workload,
        DesEvaluator,
        SimRng,
    ) {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let base = Deployment::base(&fam, 2);
        let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
        let rate = cap * rate_frac;
        let est = analytic::estimate(&fam, &perf, &base, rate);
        let ci_ref = CarbonIntensity::from_g_per_kwh(250.0);
        let c_base = Objective::carbon_per_request_g(est.energy_per_request_j, ci_ref);
        let objective = Objective::new(fam.accuracy_base(), c_base, est.p95_latency_s * 1.2);
        let evaluator = DesEvaluator::new(fam.clone(), perf, rate, base, 7);
        (
            fam,
            perf,
            objective,
            Workload::poisson(rate),
            evaluator,
            SimRng::new(77),
        )
    }

    #[test]
    fn static_schemes_never_change() {
        let (fam, perf, objective, workload, mut evaluator, mut rng) = ctx_fixture(0.6);
        for kind in [SchemeKind::Base, SchemeKind::Co2Opt] {
            let mut s = make_scheduler(kind, &fam, 2, SaParams::default());
            let mut ctx = SchedulerCtx {
                family: &fam,
                perf: &perf,
                objective: &objective,
                now: SimTime::ZERO,
                active_gpus: 2,
                workload: &workload,
                ci: CarbonIntensity::from_g_per_kwh(100.0),
                evaluator: &mut evaluator,
                rng: &mut rng,
            };
            let d1 = s.plan(&mut ctx);
            let mut ctx2 = SchedulerCtx {
                family: &fam,
                perf: &perf,
                objective: &objective,
                now: SimTime::ZERO,
                active_gpus: 2,
                workload: &workload,
                ci: CarbonIntensity::from_g_per_kwh(400.0),
                evaluator: &mut evaluator,
                rng: &mut rng,
            };
            let d2 = s.plan(&mut ctx2);
            assert_eq!(d1.deployment, d2.deployment);
            assert!(d1.run.is_none());
        }
    }

    #[test]
    fn clover_finds_carbon_saving_config() {
        let (fam, perf, objective, workload, mut evaluator, mut rng) = ctx_fixture(0.6);
        let mut s = make_scheduler(SchemeKind::Clover, &fam, 2, SaParams::default());
        let mut ctx = SchedulerCtx {
            family: &fam,
            perf: &perf,
            objective: &objective,
            now: SimTime::ZERO,
            active_gpus: 2,
            workload: &workload,
            ci: CarbonIntensity::from_g_per_kwh(300.0),
            evaluator: &mut evaluator,
            rng: &mut rng,
        };
        let d = s.plan(&mut ctx);
        let run = d.run.expect("clover records its run");
        assert!(run.best_f > 0.0, "best_f {}", run.best_f);
        assert!(run.evals.len() >= 2);
        assert!(run.time_spent_s > 0.0);
    }

    #[test]
    fn oracle_switches_with_intensity() {
        let (fam, perf, objective, workload, mut evaluator, mut rng) = ctx_fixture(0.6);
        let mut s = make_scheduler(SchemeKind::Oracle, &fam, 2, SaParams::default());
        let mut ctx_hi = SchedulerCtx {
            family: &fam,
            perf: &perf,
            objective: &objective,
            now: SimTime::ZERO,
            active_gpus: 2,
            workload: &workload,
            ci: CarbonIntensity::from_g_per_kwh(450.0),
            evaluator: &mut evaluator,
            rng: &mut rng,
        };
        let hi = s.plan(&mut ctx_hi);
        assert!(hi.run.is_none(), "oracle charges no optimization time");
        let mut ctx_lo = SchedulerCtx {
            family: &fam,
            perf: &perf,
            objective: &objective,
            now: SimTime::ZERO,
            active_gpus: 2,
            workload: &workload,
            ci: CarbonIntensity::from_g_per_kwh(60.0),
            evaluator: &mut evaluator,
            rng: &mut rng,
        };
        let lo = s.plan(&mut ctx_lo);
        // At very low intensity, accuracy dominates: the oracle should pick
        // a configuration with higher accuracy than the high-intensity pick.
        let acc = |d: &Deployment| analytic::estimate(&fam, &perf, d, 10.0).accuracy_pct;
        assert!(
            acc(&lo.deployment) >= acc(&hi.deployment),
            "lo {} hi {}",
            acc(&lo.deployment),
            acc(&hi.deployment)
        );
    }

    #[test]
    fn oracle_reprofiles_per_rate_band() {
        // A diurnal workload spans a wide rate range; planning at the
        // trough and at the peak must land in different bands and build
        // separate offline tables, while planning twice at the same demand
        // reuses the existing table.
        let (fam, perf, objective, _, mut evaluator, mut rng) = ctx_fixture(0.5);
        let workload = Workload::new(clover_workload::WorkloadKind::diurnal(), 60.0);
        let mut s = OracleScheduler::new();
        let plan_at =
            |s: &mut OracleScheduler, evaluator: &mut DesEvaluator, rng: &mut SimRng, rate: f64| {
                evaluator.rate_rps = rate;
                let mut ctx = SchedulerCtx {
                    family: &fam,
                    perf: &perf,
                    objective: &objective,
                    now: SimTime::ZERO,
                    active_gpus: 2,
                    workload: &workload,
                    ci: CarbonIntensity::from_g_per_kwh(300.0),
                    evaluator,
                    rng,
                };
                s.plan(&mut ctx);
            };
        plan_at(&mut s, &mut evaluator, &mut rng, workload.min_rate() + 1.0);
        assert_eq!(s.profiles.len(), 1);
        plan_at(&mut s, &mut evaluator, &mut rng, workload.max_rate() - 1.0);
        assert_eq!(s.profiles.len(), 2, "peak demand must get its own band");
        assert_ne!(s.profiles[0].band, s.profiles[1].band);
        plan_at(&mut s, &mut evaluator, &mut rng, workload.min_rate() + 1.0);
        assert_eq!(s.profiles.len(), 2, "same band must reuse its table");
    }

    #[test]
    fn oracle_observe_keeps_a_per_band_rate_ewma() {
        use clover_workload::{ArrivalProcess, PoissonProcess};
        /// A window in which nothing arrives.
        struct Silent;
        impl ArrivalProcess for Silent {
            fn next_after(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
                None
            }
        }
        let fam = efficientnet();
        let workload = Workload::new(clover_workload::WorkloadKind::diurnal(), 60.0);
        let width = (workload.max_rate() - workload.min_rate()) / ORACLE_RATE_BANDS as f64;
        let mut sim = ServingSim::new(fam.clone(), PerfModel::a100(), Deployment::base(&fam, 2), 5);
        let span = SimDuration::from_secs(60.0);
        let mut s = OracleScheduler::new();
        // Serves one window of `arrivals`, shows it to `s`, and returns its
        // measured rate and that rate's band.
        let mut observe = |s: &mut OracleScheduler, arrivals: &mut dyn ArrivalProcess| {
            let metrics = sim.run_window_with(arrivals, span, SimDuration::ZERO);
            s.observe(&Observation {
                metrics: &metrics,
                workload: &workload,
            });
            let rate = metrics.arrived as f64 / metrics.span_s;
            (rate, workload.rate_band(rate, ORACLE_RATE_BANDS))
        };

        // A band's first observed rate is taken as is.
        let trough = workload.min_rate() + 0.5 * width;
        let (r1, band) = observe(&mut s, &mut PoissonProcess::new(trough));
        assert_eq!(s.observed_rps[band], Some(r1));
        // The next one in that band blends in at the EWMA weight.
        let (r2, band2) = observe(&mut s, &mut PoissonProcess::new(trough));
        assert_eq!(band2, band, "both trough windows must land in one band");
        assert_ne!(r2, r1, "the second window must measure a different rate");
        let blended = r1 + OBSERVED_RATE_ALPHA * (r2 - r1);
        assert_eq!(s.observed_rps[band], Some(blended));

        // A window with no arrivals leaves every estimate unchanged.
        let before = s.observed_rps;
        let (silent, _) = observe(&mut s, &mut Silent);
        assert_eq!(silent, 0.0);
        assert_eq!(s.observed_rps, before);

        // Peak traffic fills its own slot and leaves the trough's alone.
        let peak_rps = workload.max_rate() - 0.5 * width;
        let (r3, peak) = observe(&mut s, &mut PoissonProcess::new(peak_rps));
        assert_ne!(peak, band);
        assert_eq!(s.observed_rps[peak], Some(r3));
        assert_eq!(s.observed_rps[band], Some(blended));
    }

    #[test]
    fn labels_and_parse() {
        assert_eq!(SchemeKind::Clover.label(), "CLOVER");
        assert!(SchemeKind::Oracle.is_carbon_aware());
        assert!(!SchemeKind::Base.is_carbon_aware());
        assert_eq!(SchemeKind::ALL.len(), 5);
        for kind in SchemeKind::ALL {
            let label = kind.label();
            assert_eq!(SchemeKind::parse(&label.to_ascii_lowercase()), Some(kind));
            assert_eq!(SchemeKind::parse(&label.to_ascii_uppercase()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("my-scheme"), None);
    }
}
