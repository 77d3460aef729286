//! Quickstart: run Clover against BASE for a few simulated hours and print
//! what it saved.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clover::carbon::Region;
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;

fn main() {
    let region = Region::CisoMarch;
    let config = ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::Clover)
        .region(region)
        .n_gpus(4)
        .horizon_hours(12.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 60.0 })
        .seed(7)
        .build();

    let experiment = Experiment::new(config);
    println!(
        "workload: {:.0} req/s Poisson, SLA p95 <= {:.1} ms",
        experiment.rate_rps,
        experiment.objective.l_tail_s * 1e3
    );

    let outcome = experiment.run();
    println!();
    println!(
        "after {:.0} simulated hours on the {} trace:",
        outcome.horizon_hours, region
    );
    println!(
        "  carbon saved vs BASE:   {:6.1} %",
        outcome.carbon_saving_pct
    );
    println!(
        "  accuracy loss vs BASE:  {:6.2} %",
        outcome.accuracy_loss_pct
    );
    println!(
        "  p95 latency:            {:6.1} ms ({}; {:.2}x BASE)",
        outcome.p95_s * 1e3,
        if outcome.sla_met {
            "meets SLA"
        } else {
            "VIOLATES SLA"
        },
        outcome.p95_norm_to_base
    );
    println!(
        "  optimization overhead:  {:6.2} % of the horizon ({} invocations, {} evaluations)",
        outcome.optimization_fraction * 100.0,
        outcome.invocations.len(),
        outcome.evals_total()
    );
}
