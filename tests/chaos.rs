//! Integration tests for deterministic chaos: fault injection, degraded
//! fallbacks, and the determinism guarantees that make a resilience study
//! citable.
//!
//! Four properties are pinned here:
//!
//! 1. **Chaos off is bit-for-bit inert.** An explicit `ChaosConfig::off()`
//!    reproduces the pre-refactor digests recorded two redesigns ago — the
//!    chaos plumbing adds no drift to unfaulted runs.
//! 2. **Chaos on stays deterministic.** A faulted five-scheme grid
//!    produces byte-identical digests serial vs parallel: the faults are
//!    part of the experiment, not noise.
//! 3. **Conservation survives the faults.** At every epoch boundary of a
//!    faulted continuous run, `carried_in + arrived == served + dropped +
//!    carried_out` — requeued in-flight work is moved, never minted or
//!    destroyed.
//! 4. **A fully dead fleet degrades, it does not deadlock.** When every
//!    board is down, arrivals queue and shed at the bound; service resumes
//!    after repair, for every scheme.
//! 5. **Degraded carbon data is surfaced, not hidden.** A long feed gap
//!    puts the monitor into last-known-good and then blind fallback, and
//!    both show up as `fallback` journal events.

use clover::core::autoscale::ScalingPolicy;
use clover::core::chaos::{ChaosConfig, FaultPlan, FaultSpec};
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell, Outcome};
use clover::telemetry::{TelemetryReport, TelemetrySpec};

/// The pre-refactor default-config digests (see `tests/control_plane.rs`
/// for provenance): `ImageClassification`, `n_gpus(4)`,
/// `horizon_hours(6.0)`, a 20 s representative window, `seed(3)`.
const PRE_REFACTOR_QUICK: [(&str, u64); 5] = [
    ("BASE", 0xA581_0B01_2522_FA2F),
    ("CO2OPT", 0x7471_7784_D531_E3F4),
    ("BLOVER", 0x6D35_A9B2_DB9E_C166),
    ("CLOVER", 0x98C0_B8B2_36D4_3E08),
    ("ORACLE", 0xB87C_862C_AEAB_AD2C),
];

/// A faulted grid cell: harsh chaos, sub-hour epochs, continuous serving,
/// reactive fleet — the configuration where every chaos code path
/// (boundary diffs, mid-window kills, fallbacks, requeue) is live.
fn faulted(scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .chaos(ChaosConfig::resilience(6.0))
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .fidelity(Fidelity::FullEpoch)
        .n_gpus(4)
        .min_gpus(1)
        .horizon_hours(2.0)
        .seed(2023)
        .build()
}

#[test]
fn chaos_off_is_bit_identical_to_the_pre_refactor_pins() {
    for (name, expected) in PRE_REFACTOR_QUICK {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::parse(name).unwrap())
            .chaos(ChaosConfig::off())
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(3)
            .build();
        let out = Experiment::new(cfg).run();
        assert_eq!(
            out.digest(),
            expected,
            "{name}: chaos-off run drifted from the pre-refactor pin \
             (got 0x{:016X})",
            out.digest()
        );
    }
}

/// Runs `configs` as single-cluster cells through the grid entry point.
fn run_clusters(
    configs: Vec<ExperimentConfig>,
    threads: usize,
    spec: TelemetrySpec,
) -> Vec<(ExperimentOutcome, TelemetryReport)> {
    let cells = configs.into_iter().map(Cell::Cluster).collect();
    run_cells_with(cells, threads, spec)
        .into_iter()
        .map(|(out, report)| match out {
            Outcome::Cluster(out) => (out, report),
            Outcome::Routed(_) => unreachable!("a single-cluster cell"),
        })
        .collect()
}

#[test]
fn faulted_grid_is_bit_identical_serial_vs_parallel() {
    let configs = || -> Vec<ExperimentConfig> {
        [
            SchemeKind::Base,
            SchemeKind::Co2Opt,
            SchemeKind::Blover,
            SchemeKind::Clover,
            SchemeKind::Oracle,
        ]
        .into_iter()
        .map(faulted)
        .collect()
    };
    let serial = run_clusters(configs(), 1, TelemetrySpec::DISABLED);
    let parallel = run_clusters(configs(), 4, TelemetrySpec::DISABLED);
    for ((s, _), (p, _)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            s.digest(),
            p.digest(),
            "{}: faulted run diverged across thread counts \
             (serial 0x{:016X}, parallel 0x{:016X})",
            s.scheme,
            s.digest(),
            p.digest()
        );
    }
}

#[test]
fn conservation_holds_at_every_boundary_under_faults() {
    for (out, _) in run_clusters(
        [
            SchemeKind::Base,
            SchemeKind::Co2Opt,
            SchemeKind::Blover,
            SchemeKind::Clover,
            SchemeKind::Oracle,
        ]
        .into_iter()
        .map(faulted)
        .collect(),
        4,
        TelemetrySpec::DISABLED,
    ) {
        let mut arrived = 0u64;
        let mut served = 0u64;
        let mut dropped = 0u64;
        for (i, h) in out.timeline.iter().enumerate() {
            arrived += h.arrived;
            served += h.served;
            dropped += h.dropped;
            assert_eq!(
                arrived,
                served + dropped + h.backlog,
                "{}: conservation broke at faulted epoch {i}",
                out.scheme
            );
        }
        assert!(arrived > 0, "{}: nothing arrived", out.scheme);
        assert!(
            out.served_scaled > 0.0,
            "{}: faulted run served nothing",
            out.scheme
        );
    }
}

#[test]
fn a_fully_dead_fleet_queues_sheds_and_recovers() {
    // Full-fleet brownouts: every board down for an hour at a time. The
    // plan is drawn from the seed alone, so first pin the fault geometry
    // this test depends on — at least one whole epoch with zero boards up,
    // and a later one back alive — then check the serving consequences.
    let n_gpus = 2usize;
    let epoch_s = 600.0;
    let horizon_hours = 6.0;
    let seed = 11u64;
    let chaos = ChaosConfig::off().with(FaultSpec::Brownouts {
        mtbf_hours: 1.0,
        duration_hours: 1.0,
        frac: 1.0,
    });
    let n_epochs = (horizon_hours * 3600.0 / epoch_s) as usize;
    let plan = FaultPlan::generate(&chaos, seed, n_gpus, n_epochs, epoch_s);
    let dead = (0..n_epochs).find(|e| plan.down_at(*e as f64 * epoch_s).len() == n_gpus);
    let dead = dead.expect("seed 11 must produce a full-fleet outage epoch");
    let alive_after = (dead..n_epochs)
        .find(|e| plan.down_at(*e as f64 * epoch_s).is_empty())
        .expect("the fleet must come back before the horizon ends");

    for scheme in [SchemeKind::Base, SchemeKind::Clover] {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(scheme)
            .chaos(chaos.clone())
            .scaling(ScalingPolicy::reactive())
            .control_epoch_s(epoch_s)
            .fidelity(Fidelity::FullEpoch)
            .n_gpus(n_gpus)
            .min_gpus(1)
            .horizon_hours(horizon_hours)
            .seed(seed)
            .build();
        let out = Experiment::new(cfg).run();

        // The dead epoch: no capacity, arrivals still land — they queue
        // (backlog) or shed (dropped), they do not vanish and the run does
        // not hang.
        let h = &out.timeline[dead];
        assert_eq!(
            h.active_gpus, 0,
            "{}: fleet not dead at epoch {dead}",
            out.scheme
        );
        assert!(
            h.arrived > 0,
            "{}: no arrivals during the outage",
            out.scheme
        );
        assert!(
            h.backlog > 0 || h.dropped > 0,
            "{}: dead-fleet arrivals neither queued nor shed",
            out.scheme
        );

        // Recovery: boards return through the warming path (one
        // provisioning epoch after the repair boundary) and service
        // resumes.
        assert!(
            out.timeline[alive_after..]
                .iter()
                .any(|h| h.active_gpus > 0),
            "{}: fleet never recovered after epoch {alive_after}",
            out.scheme
        );
        assert!(
            out.timeline[alive_after..].iter().any(|h| h.served > 0),
            "{}: no requests served after repair",
            out.scheme
        );

        // And the law still closes across the outage.
        let mut arrived = 0u64;
        let mut served = 0u64;
        let mut dropped = 0u64;
        for (i, h) in out.timeline.iter().enumerate() {
            arrived += h.arrived;
            served += h.served;
            dropped += h.dropped;
            assert_eq!(
                arrived,
                served + dropped + h.backlog,
                "{}: conservation broke at epoch {i} across the outage",
                out.scheme
            );
        }
    }
}

#[test]
fn carbon_gaps_surface_as_fallback_journal_events() {
    // A feed that is dark most of the time: gaps arrive every ~2 h and
    // last ~10 h on average. Pin the geometry first — the run needs one
    // gap long enough to outlive the monitor's 2 h last-known-good cap —
    // then check that the plane journals both fallback modes.
    let seed = 5u64;
    let horizon_hours = 12.0;
    let chaos = ChaosConfig::off().with(FaultSpec::CarbonGaps {
        mtbf_hours: 2.0,
        duration_hours: 10.0,
    });
    let plan = FaultPlan::generate(&chaos, seed, 2, horizon_hours as usize, 3600.0);
    assert!(
        plan.carbon_gaps()
            .iter()
            .any(|(a, b)| b.as_secs() - a.as_secs() > 4.0 * 3600.0),
        "seed 5 must produce a gap outliving the 2 h age cap"
    );

    let cfg = ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::Base)
        .chaos(chaos)
        .n_gpus(2)
        .horizon_hours(horizon_hours)
        .seed(seed)
        .build();
    let mut pairs = run_clusters(vec![cfg], 1, TelemetrySpec::JOURNAL);
    let (_, report) = pairs.remove(0);
    let journal = report.journal.expect("journal enabled");
    let mode_count = |mode: &str| -> usize {
        journal
            .as_str()
            .lines()
            .filter(|l| {
                l.contains("\"event\":\"fallback\"") && l.contains(&format!("\"mode\":\"{mode}\""))
            })
            .count()
    };
    assert!(
        mode_count("stale") > 0,
        "no epoch planned on last-known-good carbon data"
    );
    assert!(
        mode_count("blind") > 0,
        "no epoch fell back to the reference intensity past the age cap"
    );
}

#[test]
fn region_outages_are_inert_for_single_cluster_experiments() {
    // `RegionOutage` is a router-level fault: a single-cluster experiment
    // has no regions to take dark, so carrying the spec must not perturb
    // the run — not even through RNG stream consumption.
    let with_outage = ChaosConfig::off().with(FaultSpec::RegionOutage {
        region: 0,
        start_h: 1.0,
        duration_h: 2.0,
    });
    let cfg = |chaos: ChaosConfig| {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .chaos(chaos)
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(3)
            .build()
    };
    let clean = Experiment::new(cfg(ChaosConfig::off())).run();
    let outaged = Experiment::new(cfg(with_outage)).run();
    assert_eq!(
        clean.digest(),
        outaged.digest(),
        "a RegionOutage spec must be a bit-identical no-op off the router"
    );
}
