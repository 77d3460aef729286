//! Capacity planning with Clover (the paper's Fig. 15 scenario).
//!
//! The question a datacenter operator actually asks: "can I hand back some
//! of these A100s?" BASE needs all ten GPUs to hold its p95; Clover's
//! partitioning and mixed-quality serving hold the *same* SLA with a
//! fraction of the hardware — which also avoids the embodied carbon of the
//! machines you no longer rack.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;

fn main() {
    let app = Application::ImageClassification;
    println!("Provisioning sweep for {app} (workload and SLA fixed at the 10-GPU BASE):");
    println!(
        "{:>6} {:>10} {:>22} {:>22}",
        "GPUs", "scheme", "p95 (x BASE, 10 GPUs)", "verdict"
    );
    for n_gpus in [10usize, 4, 2] {
        for scheme in [SchemeKind::Base, SchemeKind::Clover] {
            let cfg = ExperimentConfig::builder(app)
                .scheme(scheme)
                .n_gpus(n_gpus)
                .reference_gpus(10)
                .horizon_hours(8.0)
                .fidelity(Fidelity::RepresentativeWindow { window_s: 60.0 })
                .seed(2023)
                .build();
            let out = Experiment::new(cfg).run();
            // Steady-state tail: runs cold-start from the BASE layout, so a
            // reduced cluster is overloaded until the first reconfiguration.
            let steady = out
                .timeline
                .iter()
                .skip(out.timeline.len() / 4)
                .map(|h| h.p95_s)
                .fold(0.0f64, f64::max);
            let norm_val = steady / out.base_p95_s;
            let norm = if norm_val > 3.0 {
                "> 3.00".to_string()
            } else {
                format!("{norm_val:>6.2}")
            };
            println!(
                "{:>6} {:>10} {:>22} {:>22}",
                n_gpus,
                out.scheme,
                norm,
                if steady <= out.sla_p95_s {
                    "meets SLA"
                } else {
                    "violates SLA"
                }
            );
        }
    }
    println!();
    println!("Clover keeps the 10-GPU service objectives on a fraction of the fleet;");
    println!("BASE cannot shed a single GPU without blowing through the tail target.");
}
