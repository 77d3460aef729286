//! Simulated annealing in the graph-represented search space
//! (paper Sec. 4.2, "Optimization in the Graph Space").
//!
//! Clover follows textbook SA with the paper's exact schedule: temperature
//! starts at 1, cools by 0.05 per iteration down to a floor of 0.1; a
//! candidate with lower energy `h` (Eq. 6) is always accepted, a worse one
//! with probability `exp(−(h' − h)/T)` (Eq. 7). The run terminates when the
//! optimization-time budget (5 simulated minutes) is exhausted or no better
//! configuration has been found for 5 consecutive evaluations.
//!
//! Evaluation is abstracted behind a closure so the same annealer drives
//! the live DES evaluator in production runs and cheap analytic evaluators
//! in tests and ablation benchmarks.

use crate::objective::{MeasuredPoint, Objective};
use clover_carbon::CarbonIntensity;
use clover_serving::Deployment;
use clover_simkit::SimRng;
use serde::{Deserialize, Serialize};

/// SA hyper-parameters (defaults are the paper's).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaParams {
    /// Initial temperature.
    pub t0: f64,
    /// Cooling per iteration.
    pub cooling: f64,
    /// Temperature floor.
    pub t_min: f64,
    /// Optimization wall-time budget, seconds (paper: 5 minutes).
    pub time_budget_s: f64,
    /// Stop after this many consecutive evaluations without a new best.
    pub non_improving_stop: u32,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            t0: 1.0,
            cooling: 0.05,
            t_min: 0.1,
            time_budget_s: 300.0,
            non_improving_stop: 5,
        }
    }
}

/// The outcome of evaluating one candidate on the live system.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutcome {
    /// Measured accuracy / energy / tail latency.
    pub point: MeasuredPoint,
    /// Wall time the evaluation consumed (measurement window plus any
    /// reconfiguration downtime), seconds.
    pub cost_s: f64,
}

/// Record of one evaluated configuration, for Figs. 12–13.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRecord {
    /// 1-based evaluation order within the invocation.
    pub order: u32,
    /// Eq. 2 carbon reduction of the evaluated point, percent.
    pub delta_carbon_pct: f64,
    /// Eq. 1 accuracy change of the evaluated point, percent (≤ 0).
    pub delta_accuracy_pct: f64,
    /// Objective value `f`.
    pub objective_f: f64,
    /// Whether the point met the SLA.
    pub sla_ok: bool,
    /// Whether SA accepted it as the new center.
    pub accepted: bool,
}

/// The annealer's internal accounting for one invocation, surfaced so the
/// decision journal can verify search behavior (notably that
/// `SearchBudget::EpochScaled` actually caps the charged live time) instead
/// of inferring it from eval counts.
///
/// Not part of `ExperimentOutcome::digest`'s frozen field set: exposing it
/// is digest-invisible.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchLedger {
    /// Annealing iterations entered (proposal attempts after the start
    /// center, including iterations whose proposal came back empty).
    pub iterations: u32,
    /// Evaluated candidates SA accepted as the new center (the start
    /// center counts).
    pub accepted: u32,
    /// Evaluated candidates SA rejected.
    pub rejected: u32,
    /// The non-improving streak at termination.
    pub final_non_improving: u32,
    /// The time budget this invocation ran under, seconds — after any
    /// epoch scaling, so sub-hour cadences show their reduced cap here.
    pub budget_s: f64,
}

/// Result of one optimization invocation.
#[derive(Debug, Clone)]
pub struct OptimizationRun {
    /// Every configuration evaluated, in order (the first is the start
    /// center).
    pub evals: Vec<EvalRecord>,
    /// The best (lowest SA energy) deployment found.
    pub best: Deployment,
    /// Its measured point.
    pub best_point: MeasuredPoint,
    /// Its objective value `f`.
    pub best_f: f64,
    /// Total wall time consumed by evaluations, seconds.
    pub time_spent_s: f64,
    /// The annealer's internal accounting (iterations, accept/reject,
    /// streak, budget) for the journal's `search` events.
    pub ledger: SearchLedger,
}

/// Runs one simulated-annealing invocation.
///
/// `propose` draws a neighbor of the current center (returns `None` when no
/// acceptable neighbor exists); `evaluate` measures a candidate on the live
/// system and reports its cost. The `start` deployment is evaluated first
/// and acts as the initial center — exactly the paper's behavior where
/// invocation N starts from invocation N−1's best configuration.
pub fn anneal<P, E>(
    start: Deployment,
    objective: &Objective,
    ci: CarbonIntensity,
    params: &SaParams,
    rng: &mut SimRng,
    mut propose: P,
    mut evaluate: E,
) -> OptimizationRun
where
    P: FnMut(&Deployment, &mut SimRng) -> Option<Deployment>,
    E: FnMut(&Deployment) -> EvalOutcome,
{
    let mut evals = Vec::new();
    let mut time_spent = 0.0;

    let record = |evals: &mut Vec<EvalRecord>,
                  objective: &Objective,
                  point: &MeasuredPoint,
                  accepted: bool| {
        let order = evals.len() as u32 + 1;
        evals.push(EvalRecord {
            order,
            delta_carbon_pct: objective.delta_carbon_pct(point.energy_per_request_j, ci),
            delta_accuracy_pct: objective.delta_accuracy_pct(point.accuracy_pct),
            objective_f: objective.f(point, ci),
            sla_ok: objective.sla_ok(point),
            accepted,
        });
    };

    // Evaluate the starting center.
    let start_outcome = evaluate(&start);
    time_spent += start_outcome.cost_s;
    let mut center = start.clone();
    let mut center_h = objective.sa_energy(&start_outcome.point, ci);
    record(&mut evals, objective, &start_outcome.point, true);

    let mut best = start;
    let mut best_point = start_outcome.point;
    let mut best_h = center_h;

    let mut non_improving = 0u32;
    let mut iter = 0u32;
    while time_spent < params.time_budget_s && non_improving < params.non_improving_stop {
        let temperature = (params.t0 - params.cooling * iter as f64).max(params.t_min);
        iter += 1;
        let Some(candidate) = propose(&center, rng) else {
            break;
        };
        let outcome = evaluate(&candidate);
        time_spent += outcome.cost_s;
        let h = objective.sa_energy(&outcome.point, ci);

        let accepted = if h <= center_h {
            true
        } else {
            rng.chance((-(h - center_h) / temperature).exp())
        };
        record(&mut evals, objective, &outcome.point, accepted);
        if accepted {
            center = candidate.clone();
            center_h = h;
        }
        if h < best_h {
            best_h = h;
            best = candidate;
            best_point = outcome.point;
            non_improving = 0;
        } else {
            non_improving += 1;
        }
    }

    let best_f = objective.f(&best_point, ci);
    let accepted = evals.iter().filter(|e| e.accepted).count() as u32;
    let rejected = evals.len() as u32 - accepted;
    OptimizationRun {
        evals,
        best,
        best_point,
        best_f,
        time_spent_s: time_spent,
        ledger: SearchLedger {
            iterations: iter,
            accepted,
            rejected,
            final_non_improving: non_improving,
            budget_s: params.time_budget_s,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::NeighborSampler;
    use clover_models::zoo::efficientnet;
    use clover_models::PerfModel;
    use clover_serving::analytic;

    fn test_objective() -> Objective {
        // C_base from BASE analytic estimate at moderate load.
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let base = Deployment::base(&fam, 4);
        let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
        let est = analytic::estimate(&fam, &perf, &base, cap * 0.65);
        let ci_ref = 250.0;
        let c_base = Objective::carbon_per_request_g(
            est.energy_per_request_j,
            CarbonIntensity::from_g_per_kwh(ci_ref),
        );
        Objective::new(fam.accuracy_base(), c_base, est.p95_latency_s * 1.05)
    }

    /// Analytic evaluator: fast and deterministic for tests.
    fn analytic_eval(rate: f64) -> impl FnMut(&Deployment) -> EvalOutcome {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        move |d: &Deployment| {
            let e = analytic::estimate(&fam, &perf, d, rate);
            EvalOutcome {
                point: MeasuredPoint {
                    accuracy_pct: e.accuracy_pct,
                    energy_per_request_j: e.energy_per_request_j,
                    p95_latency_s: if e.stable { e.p95_latency_s } else { 1e6 },
                },
                cost_s: 10.0,
            }
        }
    }

    fn run_sa(seed: u64, params: &SaParams) -> OptimizationRun {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let base = Deployment::base(&fam, 4);
        let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
        let rate = cap * 0.65;
        let objective = test_objective();
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(seed);
        anneal(
            base,
            &objective,
            CarbonIntensity::from_g_per_kwh(300.0),
            params,
            &mut rng,
            move |center, rng| sampler.sample(&fam, center, rng),
            analytic_eval(rate),
        )
    }

    #[test]
    fn improves_over_base() {
        let run = run_sa(1, &SaParams::default());
        // BASE has f ~ 0 at the reference intensity; SA must find something
        // substantially better (carbon savings from partitioning/mixing).
        assert!(run.best_f > 5.0, "best_f {}", run.best_f);
        assert!(run.evals.len() >= 2);
    }

    #[test]
    fn respects_time_budget() {
        let params = SaParams {
            time_budget_s: 35.0, // 10 s per eval -> at most 4 evals
            non_improving_stop: 1000,
            ..SaParams::default()
        };
        let run = run_sa(2, &params);
        assert!(run.evals.len() <= 4, "{} evals", run.evals.len());
        assert!(run.time_spent_s >= 35.0);
    }

    #[test]
    fn stops_after_non_improving_streak() {
        let params = SaParams {
            time_budget_s: 1e9,
            non_improving_stop: 5,
            ..SaParams::default()
        };
        let run = run_sa(3, &params);
        // Termination implies the last 5 evals found no new best.
        assert!(run.evals.len() < 200, "ran away: {} evals", run.evals.len());
    }

    #[test]
    fn best_meets_sla() {
        let run = run_sa(4, &SaParams::default());
        let obj = test_objective();
        assert!(
            obj.sla_ok(&run.best_point),
            "best violates SLA: p95 {} vs {}",
            run.best_point.p95_latency_s,
            obj.l_tail_s
        );
    }

    #[test]
    fn first_record_is_start_and_accepted() {
        let run = run_sa(5, &SaParams::default());
        assert_eq!(run.evals[0].order, 1);
        assert!(run.evals[0].accepted);
    }

    #[test]
    fn ledger_accounts_for_every_eval() {
        let run = run_sa(7, &SaParams::default());
        let l = run.ledger;
        assert_eq!((l.accepted + l.rejected) as usize, run.evals.len());
        assert_eq!(l.budget_s, 300.0, "default budget is the paper's 5 min");
        // Every eval after the start center consumed one iteration.
        assert!(l.iterations as usize + 1 >= run.evals.len());
        assert!(l.final_non_improving <= SaParams::default().non_improving_stop);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_sa(7, &SaParams::default());
        let b = run_sa(7, &SaParams::default());
        assert_eq!(a.evals.len(), b.evals.len());
        assert_eq!(a.best_f, b.best_f);
    }

    #[test]
    fn warm_start_converges_faster() {
        // Paper Fig. 13: restarting from the previous best needs fewer
        // evaluations than the first blind invocation.
        let first = run_sa(11, &SaParams::default());
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let base = Deployment::base(&fam, 4);
        let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
        let rate = cap * 0.65;
        let objective = test_objective();
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(11);
        let warm = anneal(
            first.best.clone(),
            &objective,
            CarbonIntensity::from_g_per_kwh(300.0),
            &SaParams::default(),
            &mut rng,
            move |center, rng| sampler.sample(&fam, center, rng),
            analytic_eval(rate),
        );
        assert!(warm.best_f >= first.best_f * 0.95);
    }
}
