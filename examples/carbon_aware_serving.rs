//! Driving the Clover control loop by hand.
//!
//! This example wires the pieces together the way the paper's Fig. 5 does:
//! a carbon monitor watching a duck-curve grid, a live evaluator serving
//! Poisson traffic, and the Clover scheduler re-optimizing whenever the
//! intensity moves more than 5%. It prints each invocation as it happens so
//! you can watch Clover trade accuracy for carbon as solar ramps in and
//! out.
//!
//! ```sh
//! cargo run --release --example carbon_aware_serving
//! ```

use clover::carbon::{CarbonMonitor, Region};
use clover::core::objective::Objective;
use clover::core::schedulers::{make_scheduler, SchedulerCtx, SchemeKind};
use clover::core::{DesEvaluator, SaParams};
use clover::models::zoo::Application;
use clover::models::PerfModel;
use clover::serving::{analytic, Deployment};
use clover::simkit::{SimRng, SimTime};
use clover::workload::Workload;

fn main() {
    let app = Application::LanguageModeling;
    let family = app.family();
    let perf = PerfModel::a100();
    let n_gpus = 6;

    // Workload and SLA from the BASE deployment, as in the paper.
    let base = Deployment::base(&family, n_gpus);
    let capacity = analytic::estimate(&family, &perf, &base, 1.0).capacity_rps;
    let rate = capacity * 0.65;
    let est = analytic::estimate(&family, &perf, &base, rate);
    let sla = est.p95_latency_s * 1.05;

    // A 24-hour duck-curve trace and the monitor, which fires on the
    // paper's 5% drift.
    let trace = Region::CisoMarch.trace(24, 11);
    let c_base = Objective::carbon_per_request_g(est.energy_per_request_j, trace.mean());
    let objective = Objective::new(family.accuracy_base(), c_base, sla);
    let mut monitor = CarbonMonitor::new(trace);

    let mut scheduler = make_scheduler(SchemeKind::Clover, &family, n_gpus, SaParams::default());
    let mut evaluator = DesEvaluator::new(family.clone(), perf, rate, base, 99);
    let mut rng = SimRng::new(5);
    let workload = Workload::poisson(rate);

    println!(
        "serving {} at {rate:.0} req/s on {n_gpus} GPUs, SLA p95 <= {:.0} ms",
        app,
        sla * 1e3
    );
    println!();
    for hour in 0..24 {
        let t = SimTime::from_hours(hour as f64);
        let event = monitor.observe(t);
        if hour == 0 || event.triggered {
            let mut ctx = SchedulerCtx {
                family: &family,
                perf: &perf,
                objective: &objective,
                ci: event.current,
                now: t,
                active_gpus: n_gpus,
                workload: &workload,
                evaluator: &mut evaluator,
                rng: &mut rng,
            };
            let decision = scheduler.plan(&mut ctx);
            monitor.acknowledge(event.current);
            let run = decision.run.expect("clover records runs");
            println!(
                "{hour:>2}h  ci={:>5.0} gCO2/kWh  re-optimized: {} evals, {:>5.1}s, best f = {:+.2}, instances = {}",
                event.current.g_per_kwh(),
                run.evals.len(),
                run.time_spent_s,
                run.best_f,
                decision.deployment.n_instances(),
            );
            evaluator.apply(decision.deployment);
        } else {
            println!(
                "{hour:>2}h  ci={:>5.0} gCO2/kWh  (drift {:.1}% < 5%, keep configuration)",
                event.current.g_per_kwh(),
                event.drift * 100.0
            );
        }
    }
}
