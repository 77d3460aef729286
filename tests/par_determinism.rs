//! Pins the parallel engine's core guarantee: a grid fanned out by
//! `run_cells_with` produces outcomes **byte-identical** to the serial run,
//! for every application, every scheme and across seeds, with multi-region
//! cells in the same pool — with telemetry on or off. Every cell derives
//! all of its randomness from its own config seed, so thread interleaving
//! has nothing it could perturb — this suite is the regression tripwire
//! for anyone who introduces shared mutable state into the experiment
//! path.

use clover::core::autoscale::ScalingPolicy;
use clover::core::control::Fidelity;
use clover::core::experiment::{ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell, GlobalOutcome, Outcome, RouterConfig};
use clover::telemetry::{TelemetryReport, TelemetrySpec};

const SEEDS: [u64; 3] = [3, 17, 2023];

fn cfg(app: Application, scheme: SchemeKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(app)
        .scheme(scheme)
        .n_gpus(2)
        .horizon_hours(2.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 10.0 })
        .seed(seed)
        .build()
}

/// A small 3-region fleet under `policy` (the `quick` cell of
/// `tests/georouting.rs`).
fn routed(policy: &str) -> RouterConfig {
    RouterConfig::builder(Application::LanguageModeling)
        .policy(policy)
        .scheme(SchemeKind::Base)
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .n_gpus_per_region(2)
        .min_gpus(1)
        .horizon_hours(4.0)
        .utilization(0.6)
        .sla_headroom(2.0)
        .seed(11)
        .build()
}

/// Every cell of the grid this suite pins: all three applications × all
/// five schemes × three seeds, then two multi-region fleets, with a label
/// per cell.
fn cells() -> impl Iterator<Item = (String, Cell)> {
    let single = Application::ALL.into_iter().flat_map(|app| {
        SchemeKind::ALL.into_iter().flat_map(move |scheme| {
            SEEDS.into_iter().map(move |seed| {
                let cell = Cell::Cluster(cfg(app, scheme, seed));
                (format!("{app}/{scheme}/{seed}"), cell)
            })
        })
    });
    let fleets =
        ["uniform", "carbon-greedy"].map(|p| (format!("routed/{p}"), Cell::Routed(routed(p))));
    single.chain(fleets)
}

fn grid() -> Vec<Cell> {
    cells().map(|(_, c)| c).collect()
}

fn digests(runs: &[(Outcome, TelemetryReport)]) -> Vec<u64> {
    runs.iter().map(|(out, _)| out.digest()).collect()
}

fn assert_clusters_identical(a: &ExperimentOutcome, b: &ExperimentOutcome, label: &str) {
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
}

fn assert_fleets_identical(a: &GlobalOutcome, b: &GlobalOutcome, label: &str) {
    assert_eq!(a.total_carbon_g, b.total_carbon_g, "{label}: carbon");
    assert_eq!(
        a.region_carbon_g, b.region_carbon_g,
        "{label}: region carbon"
    );
    assert_eq!(a.p95_s, b.p95_s, "{label}: p95");
    assert_eq!(a.accuracy_pct, b.accuracy_pct, "{label}: accuracy");
    assert_eq!(a.served_scaled, b.served_scaled, "{label}: served");
    assert_eq!(a.sim_events, b.sim_events, "{label}: events");
    assert_eq!(a.mean_weights, b.mean_weights, "{label}: weights");
}

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    // Spot-check the headline numbers with exact float equality first (for
    // readable failures), then pin everything through the digest.
    match (a, b) {
        (Outcome::Cluster(a), Outcome::Cluster(b)) => assert_clusters_identical(a, b, label),
        (Outcome::Routed(a), Outcome::Routed(b)) => assert_fleets_identical(a, b, label),
        _ => panic!("{label}: outcome kinds differ"),
    }
    assert_eq!(a.digest(), b.digest(), "{label}: digest");
}

/// The mixed grid on four workers with every telemetry pillar on equals
/// the serial telemetry-off reference for every application, scheme, seed
/// and routing policy — outcome for outcome, bit for bit — and writes the
/// decision journal the serial run writes, byte for byte. Phase profiling
/// and the decision journal are overlays: neither may move a parallel
/// outcome. Single-cluster and multi-region cells share the one pool.
#[test]
fn par_map_grid_is_bit_identical_to_serial() {
    let serial = run_cells_with(grid(), 1, TelemetrySpec::DISABLED);
    let journaled = run_cells_with(grid(), 1, TelemetrySpec::JOURNAL);
    let parallel = run_cells_with(grid(), 4, TelemetrySpec::ALL);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(
        digests(&serial),
        digests(&journaled),
        "the journal moved a digest"
    );
    let arms = serial.iter().zip(&journaled).zip(&parallel);
    for ((((a, _), (_, serial_report)), (b, report)), (label, _)) in arms.zip(cells()) {
        assert_outcomes_identical(a, b, &label);
        assert!(report.phases.is_some(), "{label}: missing phase totals");
        let journal = report.journal.as_ref().expect("parallel journal");
        let serial_journal = serial_report.journal.as_ref().expect("serial journal");
        assert!(!journal.is_empty(), "{label}: empty journal");
        assert_eq!(
            serial_journal.as_str(),
            journal.as_str(),
            "{label}: journal bytes diverged between serial and parallel runs"
        );
    }
}

/// Thread count is irrelevant to the result: 2, 3 and 8 workers all
/// reproduce the same digests.
#[test]
fn any_thread_count_gives_the_same_digests() {
    let reference = digests(&run_cells_with(grid(), 1, TelemetrySpec::DISABLED));
    for threads in [2, 3, 8] {
        let runs = run_cells_with(grid(), threads, TelemetrySpec::DISABLED);
        assert_eq!(reference, digests(&runs), "{threads} threads diverged");
    }
}
