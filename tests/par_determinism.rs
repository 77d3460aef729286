//! Pins the parallel engine's core guarantee: an experiment grid fanned out
//! over `par_map` produces outcomes **byte-identical** to the serial run,
//! for every scheme and across seeds. Every cell derives all of its
//! randomness from its own config seed, so thread interleaving has nothing
//! it could perturb — this suite is the regression tripwire for anyone who
//! introduces shared mutable state into the experiment path.

use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;

const SEEDS: [u64; 3] = [3, 17, 2023];

fn cfg(scheme: SchemeKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .n_gpus(2)
        .horizon_hours(2.0)
        .sim_window_s(10.0)
        .seed(seed)
        .build()
}

/// The full grid this suite pins: all five schemes × three seeds.
fn grid() -> Vec<ExperimentConfig> {
    SchemeKind::ALL
        .into_iter()
        .flat_map(|scheme| SEEDS.into_iter().map(move |seed| cfg(scheme, seed)))
        .collect()
}

fn assert_outcomes_identical(a: &ExperimentOutcome, b: &ExperimentOutcome, label: &str) {
    // Spot-check the headline numbers with exact float equality first (for
    // readable failures), then pin everything through the digest.
    assert_eq!(a.total_carbon_g, b.total_carbon_g, "{label}: carbon");
    assert_eq!(a.base_carbon_g, b.base_carbon_g, "{label}: base carbon");
    assert_eq!(a.p95_s, b.p95_s, "{label}: p95");
    assert_eq!(a.accuracy_pct, b.accuracy_pct, "{label}: accuracy");
    assert_eq!(a.served_scaled, b.served_scaled, "{label}: served");
    assert_eq!(a.sim_events, b.sim_events, "{label}: events");
    assert_eq!(a.evals_total(), b.evals_total(), "{label}: evals");
    assert_eq!(
        a.optimization_time_s, b.optimization_time_s,
        "{label}: opt time"
    );
    assert_eq!(a.digest(), b.digest(), "{label}: digest");
}

/// Parallel `run_cells` equals the serial reference for all five schemes
/// and three seeds each — outcome for outcome, bit for bit.
#[test]
fn par_map_grid_is_bit_identical_to_serial() {
    let serial = Experiment::run_cells(grid(), 1);
    let parallel = Experiment::run_cells(grid(), 4);
    assert_eq!(serial.len(), parallel.len());
    let labels: Vec<String> = SchemeKind::ALL
        .into_iter()
        .flat_map(|scheme| {
            SEEDS
                .into_iter()
                .map(move |seed| format!("{scheme}/{seed}"))
        })
        .collect();
    for ((a, b), label) in serial.iter().zip(parallel.iter()).zip(labels.iter()) {
        assert_outcomes_identical(a, b, label);
    }
}

/// Thread count is irrelevant to the result: 2, 3 and 8 workers all
/// reproduce the same digests.
#[test]
fn any_thread_count_gives_the_same_digests() {
    let reference: Vec<u64> = Experiment::run_cells(grid(), 1)
        .iter()
        .map(ExperimentOutcome::digest)
        .collect();
    for threads in [2, 3, 8] {
        let digests: Vec<u64> = Experiment::run_cells(grid(), threads)
            .iter()
            .map(ExperimentOutcome::digest)
            .collect();
        assert_eq!(reference, digests, "{threads} threads diverged");
    }
}
