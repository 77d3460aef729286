//! The control-plane API end to end: schemes driven on a sub-hour control
//! cadence with full-epoch fidelity.
//!
//! Demonstrates the pieces `docs/control-plane.md` describes:
//!
//! - **Scheme lifecycle** — CLOVER searches online and charges its live
//!   measurements; ORACLE plans from offline profiles it builds once per
//!   (fleet size, rate band) and refines through its `observe` hook. Both
//!   are addressed by `SchemeKind` from an ordinary `ExperimentConfig`.
//! - **Sub-hour control epochs** — the loop ticks every 15 minutes while
//!   the carbon trace stays hourly.
//! - **Fidelity** — the same cells are run with the paper's representative
//!   window and with `FullEpoch` (every arrival of every epoch simulated),
//!   showing what burst sampling does to the measured numbers under a
//!   bursty MMPP workload.
//!
//! Run with: `cargo run --release --example control_plane`

use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::workload::WorkloadKind;

fn config(scheme: SchemeKind, fidelity: Fidelity) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(WorkloadKind::mmpp())
        .n_gpus(2)
        .horizon_hours(6.0)
        .control_epoch_s(900.0) // 15-minute control loop
        .fidelity(fidelity)
        // MMPP bursts hit ~2.5× the mean rate: leave burst headroom on the
        // fleet and on the tail budget, or every BASE-layout epoch drowns.
        .utilization(0.25)
        .sla_headroom(2.0)
        .seed(7)
        .build()
}

fn main() {
    println!("scheme      fidelity     carbon_save%  acc_loss%  p95/sla  epochs");
    for scheme in [SchemeKind::Clover, SchemeKind::Oracle] {
        for fidelity in [
            Fidelity::RepresentativeWindow { window_s: 20.0 },
            Fidelity::FullEpoch,
        ] {
            let label = fidelity.label();
            let out = Experiment::new(config(scheme, fidelity)).run();
            println!(
                "{:<11} {:<12} {:>12.1} {:>10.2} {:>8.2} {:>7}",
                out.scheme,
                label,
                out.carbon_saving_pct,
                out.accuracy_loss_pct,
                out.p95_s / out.sla_p95_s,
                out.timeline.len(),
            );
        }
    }
    println!();
    println!(
        "The 15-minute cadence gives 24 control epochs per 6 h run, and full-epoch fidelity \
         samples the MMPP bursts the 20 s representative window mostly misses."
    );
}
