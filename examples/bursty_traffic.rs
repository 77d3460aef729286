//! Does carbon-aware serving survive bursty traffic?
//!
//! The paper evaluates Clover under smooth open-loop Poisson arrivals; real
//! fleets get flash crowds and on/off bursts. This example runs CLOVER and
//! BASE under three traffic scenarios with the *same* long-run demand —
//! Poisson, a 4× Markov-modulated burst process, and a 5× flash crowd every
//! two hours — and compares carbon savings and tail latency.
//!
//! ```sh
//! cargo run --release --example bursty_traffic
//! ```

use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::workload::WorkloadKind;

fn run(scheme: SchemeKind, workload: WorkloadKind) -> ExperimentOutcome {
    let cfg = ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(workload)
        .n_gpus(4)
        .horizon_hours(12.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 60.0 })
        .seed(23)
        .build();
    Experiment::new(cfg).run()
}

fn main() {
    let scenarios = [
        ("poisson", WorkloadKind::Poisson),
        ("mmpp 4x bursts", WorkloadKind::mmpp()),
        ("flash crowd 5x", WorkloadKind::flash_crowd()),
    ];

    println!("CLOVER vs BASE for 12 simulated hours, same mean demand per scenario:");
    println!(
        "{:<16} {:>8} {:>12} {:>14} {:>10} {:>6}",
        "scenario", "scheme", "carbon kg", "saved vs BASE", "p95 ms", "SLA"
    );
    for (label, kind) in scenarios {
        for scheme in [SchemeKind::Base, SchemeKind::Clover] {
            let out = run(scheme, kind.clone());
            println!(
                "{:<16} {:>8} {:>12.3} {:>13.1}% {:>10.1} {:>6}",
                label,
                out.scheme,
                out.total_carbon_g / 1e3,
                out.carbon_saving_pct,
                out.p95_s * 1e3,
                if out.sla_met { "ok" } else { "VIOL" }
            );
        }
    }
    println!();
    println!(
        "Bursts concentrate the same mean demand into short spikes that run \
         well past the cluster's capacity, so BASE — provisioned for the \
         mean — blows its Poisson-derived SLA whenever a measurement window \
         catches a burst. The carbon-aware controller re-optimizes on every \
         SLA violation (its Sec. 4.2 trigger), which keeps its own tail in \
         check while still cutting carbon."
    );
}
