//! Integration tests for the control-plane redesign.
//!
//! Two guarantees are pinned here:
//!
//! 1. **The refactor is invisible at the default configuration.** The
//!    digests below were recorded on the tree *before* the experiment's
//!    inner loop was extracted into a stepped control loop over an
//!    `EpochSchedule` at a configurable `Fidelity`, and before the
//!    scheduler trait was redesigned — the default
//!    (hourly epoch, representative window) must keep reproducing them
//!    bit for bit, for all five schemes.
//! 2. **The new degrees of freedom stay deterministic.** Sub-hour control
//!    epochs and `FullEpoch` fidelity produce serial == parallel digests
//!    across thread counts for all five schemes.

use clover::core::autoscale::ScalingPolicy;
use clover::core::control::{Fidelity, SearchBudget};
use clover::core::experiment::{Experiment, ExperimentConfig};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell};
use clover::telemetry::TelemetrySpec;

/// Digests recorded before the control-plane extraction (commit 19339c8's
/// tree): `ExperimentConfig::builder(ImageClassification).scheme(s)
/// .n_gpus(4).horizon_hours(6.0).fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 }).seed(3)`.
const PRE_REFACTOR_QUICK: [(&str, u64); 5] = [
    ("BASE", 0xA581_0B01_2522_FA2F),
    ("CO2OPT", 0x7471_7784_D531_E3F4),
    ("BLOVER", 0x6D35_A9B2_DB9E_C166),
    ("CLOVER", 0x98C0_B8B2_36D4_3E08),
    ("ORACLE", 0xB87C_862C_AEAB_AD2C),
];

/// Same vintage: the `tests/par_determinism.rs` grid cell
/// (`n_gpus(2).horizon_hours(2.0).fidelity(Fidelity::RepresentativeWindow { window_s: 10.0 })`) per scheme × seed.
const PRE_REFACTOR_PAR: [(&str, u64, u64); 15] = [
    ("BASE", 3, 0x679B_42AC_F7F2_44E8),
    ("BASE", 17, 0x2A03_A8CF_4273_2C7E),
    ("BASE", 2023, 0xDF41_D576_90AB_9AC5),
    ("CO2OPT", 3, 0xB0D2_F4EA_61DA_C6F4),
    ("CO2OPT", 17, 0x30B5_5E07_368E_3026),
    ("CO2OPT", 2023, 0x646E_5485_08CC_48E3),
    ("BLOVER", 3, 0xD5F8_6113_E6A4_A3DF),
    ("BLOVER", 17, 0xDA7F_3991_5902_BA8E),
    ("BLOVER", 2023, 0xA142_D920_FBFC_0649),
    ("CLOVER", 3, 0x67F5_B0A3_9845_4711),
    ("CLOVER", 17, 0x1F23_DF73_E05A_C33A),
    ("CLOVER", 2023, 0xB37D_EC45_7DC0_A0B4),
    ("ORACLE", 3, 0xA9ED_FD3C_CD3C_36FB),
    ("ORACLE", 17, 0x0A02_646E_D2F2_442F),
    ("ORACLE", 2023, 0x1A2B_161C_6F12_E387),
];

#[test]
fn default_config_reproduces_pre_refactor_digests() {
    for (name, expected) in PRE_REFACTOR_QUICK {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::parse(name).unwrap())
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(3)
            .build();
        assert_eq!(cfg.control_epoch_s, 3600.0, "default cadence is hourly");
        let out = Experiment::new(cfg).run();
        assert_eq!(
            out.digest(),
            expected,
            "{name}: control-plane extraction changed the default-config numbers \
             (got 0x{:016X})",
            out.digest()
        );
    }
}

#[test]
fn default_grid_cells_reproduce_pre_refactor_digests() {
    for (name, seed, expected) in PRE_REFACTOR_PAR {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::parse(name).unwrap())
            .n_gpus(2)
            .horizon_hours(2.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 10.0 })
            .seed(seed)
            .build();
        let out = Experiment::new(cfg).run();
        assert_eq!(
            out.digest(),
            expected,
            "{name}/{seed}: got 0x{:016X}",
            out.digest()
        );
    }
}

/// One cell of the sub-hour / fidelity grids: 20-minute control epochs
/// under a bursty workload.
fn epoch_cfg(scheme: SchemeKind, fidelity: Fidelity, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(clover::workload::WorkloadKind::flash_crowd())
        .n_gpus(2)
        .horizon_hours(2.0)
        .control_epoch_s(1200.0)
        .fidelity(fidelity)
        .seed(seed)
        .build()
}

#[test]
fn sub_hour_epochs_run_all_schemes_with_finer_timelines() {
    for scheme in SchemeKind::ALL {
        let cfg = epoch_cfg(scheme, Fidelity::RepresentativeWindow { window_s: 10.0 }, 7);
        assert_eq!(cfg.control_epoch_s, 1200.0);
        assert_eq!(cfg.fidelity.label(), "window");
        let out = Experiment::new(cfg).run();
        // 2 h of 20-minute epochs = 6 timeline entries, 3 per trace hour.
        assert_eq!(out.timeline.len(), 6, "{scheme}");
        assert_eq!(out.timeline[2].hour, 0, "{scheme}: epoch 2 is in hour 0");
        assert_eq!(out.timeline[3].hour, 1, "{scheme}: epoch 3 is in hour 1");
        assert!((out.timeline[1].t_hours - 1.0 / 3.0).abs() < 1e-12);
        // Carbon intensity is held per trace hour across sub-hour epochs.
        assert_eq!(out.timeline[0].ci_g_per_kwh, out.timeline[2].ci_g_per_kwh);
        assert!(out.served_scaled > 0.0, "{scheme}: nothing served");
    }
}

#[test]
fn full_epoch_fidelity_simulates_everything() {
    let window = Experiment::new(epoch_cfg(
        SchemeKind::Base,
        Fidelity::RepresentativeWindow { window_s: 10.0 },
        7,
    ))
    .run();
    let full = epoch_cfg(SchemeKind::Base, Fidelity::FullEpoch, 7);
    assert_eq!(full.fidelity.label(), "full-epoch");
    let full = Experiment::new(full).run();
    // The full-epoch path simulates ~120× the representative traffic
    // (1200 s epochs vs 10 s windows); its event count must reflect that.
    assert!(
        full.sim_events > window.sim_events * 20,
        "full-epoch {} events vs window {}",
        full.sim_events,
        window.sim_events
    );
    // Served totals agree in expectation — extrapolation on one side,
    // exhaustive simulation on the other (flash-crowd spikes make the
    // representative window a noisy estimator, hence the loose band).
    let ratio = full.served_scaled / window.served_scaled;
    assert!((0.5..2.0).contains(&ratio), "served ratio {ratio}");
}

/// The digest of each of `configs` run as a single-cluster cell on
/// `threads` workers.
fn digests(configs: &[ExperimentConfig], threads: usize) -> Vec<u64> {
    let cells = configs.iter().cloned().map(Cell::Cluster).collect();
    run_cells_with(cells, threads, TelemetrySpec::DISABLED)
        .iter()
        .map(|(out, _)| out.digest())
        .collect()
}

/// The acceptance gate: sub-hour epochs and FullEpoch fidelity keep the
/// serial and parallel engines byte-identical for every scheme.
#[test]
fn sub_hour_and_full_epoch_grids_are_bit_identical_serial_vs_parallel() {
    let configs: Vec<ExperimentConfig> = SchemeKind::ALL
        .into_iter()
        .flat_map(|scheme| {
            [
                Fidelity::RepresentativeWindow { window_s: 10.0 },
                Fidelity::FullEpoch,
            ]
            .into_iter()
            .map(move |f| epoch_cfg(scheme, f, 23))
        })
        .collect();
    let serial: Vec<u64> = digests(&configs, 1);
    for threads in [2, 4] {
        let parallel: Vec<u64> = digests(&configs, threads);
        assert_eq!(
            serial, parallel,
            "{threads}-thread sub-hour/full-epoch grid diverged"
        );
    }
    // The two fidelities are genuinely different experiments.
    assert_ne!(serial[0], serial[1], "window vs full-epoch digests collide");
}

/// Continuous serving at a 2-minute cadence: one unbroken run, not a
/// sequence of cold starts. The acceptance gate for the carry-over: at
/// **every** epoch boundary the cumulative arrivals equal the cumulative
/// served plus dropped plus the backlog crossing that boundary — no request
/// silently vanishes or double-counts at a seam — for all five schemes,
/// and additionally under a reactive fleet (whose resizes force the
/// reconfiguration re-queue path at the seams).
#[test]
fn continuous_epochs_conserve_requests_at_every_boundary() {
    let cells: Vec<(SchemeKind, ScalingPolicy)> = SchemeKind::ALL
        .into_iter()
        .map(|s| (s, ScalingPolicy::Static))
        .chain([
            (SchemeKind::Base, ScalingPolicy::reactive()),
            (SchemeKind::Clover, ScalingPolicy::reactive()),
        ])
        .collect();
    for (scheme, policy) in cells {
        let label = format!("{scheme}/{}", policy.label());
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(scheme)
            .workload(clover::workload::WorkloadKind::flash_crowd())
            .scaling(policy)
            .n_gpus(2)
            .horizon_hours(1.0)
            .control_epoch_s(120.0)
            .fidelity(Fidelity::FullEpoch)
            .sla_headroom(2.0)
            .seed(7)
            .build();
        let out = Experiment::new(cfg).run();
        assert_eq!(out.timeline.len(), 30, "{label}");
        let (mut arrived, mut served, mut dropped) = (0u64, 0u64, 0u64);
        for (i, h) in out.timeline.iter().enumerate() {
            arrived += h.arrived;
            served += h.served;
            dropped += h.dropped;
            assert_eq!(
                arrived,
                served + dropped + h.backlog,
                "{label}: conservation broke at epoch {i}"
            );
        }
        assert!(arrived > 0, "{label}: nothing arrived");
        // The continuity is real: some boundary carries live state (a
        // 2-minute epoch at production load always has work in flight).
        assert!(
            out.timeline.iter().any(|h| h.backlog > 0),
            "{label}: no epoch boundary carried any state — still cold-starting?"
        );
        // The representative-window path, by contrast, always drains.
        assert!(
            out.served_scaled > 0.0,
            "{label}: continuous run served nothing"
        );
    }
}

/// The continuous path stays deterministic: a 2-minute full-epoch grid
/// (all five schemes, carry-over active at every seam) produces
/// byte-identical digests between serial and parallel execution.
#[test]
fn continuous_full_epoch_grid_is_bit_identical_serial_vs_parallel() {
    let configs: Vec<ExperimentConfig> = SchemeKind::ALL
        .into_iter()
        .map(|scheme| {
            ExperimentConfig::builder(Application::ImageClassification)
                .scheme(scheme)
                .workload(clover::workload::WorkloadKind::flash_crowd())
                .n_gpus(2)
                .horizon_hours(1.0)
                .control_epoch_s(120.0)
                .fidelity(Fidelity::FullEpoch)
                .sla_headroom(2.0)
                .seed(23)
                .build()
        })
        .collect();
    let serial: Vec<u64> = digests(&configs, 1);
    for threads in [2, 4] {
        let parallel: Vec<u64> = digests(&configs, threads);
        assert_eq!(
            serial, parallel,
            "{threads}-thread continuous full-epoch grid diverged"
        );
    }
}

/// Epoch-scaled search budgets: invisible at the hourly default (the cap
/// sits exactly at the paper's 300 s budget), binding at sub-hour cadences
/// (each invocation's charged live time is capped proportionally).
#[test]
fn search_budget_scales_with_the_epoch_and_not_with_the_default() {
    // Hourly: EpochScaled and Fixed are the same experiment, bit for bit.
    let hourly = |budget: SearchBudget| {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .search_budget(budget)
            .seed(3)
            .build()
    };
    let scaled = Experiment::new(hourly(SearchBudget::epoch_scaled())).run();
    let fixed = Experiment::new(hourly(SearchBudget::Fixed)).run();
    assert_eq!(
        scaled.digest(),
        fixed.digest(),
        "epoch scaling must be invisible at the hourly default"
    );

    // 10-minute epochs: the scaled budget caps each invocation's charged
    // live time at 600/12 = 50 s (plus at most one in-flight evaluation),
    // where the fixed budget still allows the paper's full 300 s.
    let sub_hour = |budget: SearchBudget| {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(4)
            .horizon_hours(2.0)
            .control_epoch_s(600.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .search_budget(budget)
            .seed(3)
            .build();
        Experiment::new(cfg).run()
    };
    let scaled = sub_hour(SearchBudget::epoch_scaled());
    let fixed = sub_hour(SearchBudget::Fixed);
    let cap_s = 600.0 / 12.0;
    let max_eval_s = 40.0; // reconfig downtime + one measurement window
    for inv in &scaled.invocations {
        assert!(
            inv.time_spent_s <= cap_s + max_eval_s,
            "scaled invocation spent {} s against a {} s cap",
            inv.time_spent_s,
            cap_s
        );
    }
    assert!(
        scaled.optimization_time_s <= fixed.optimization_time_s,
        "scaled budget ({} s total) should not out-spend the fixed one ({} s)",
        scaled.optimization_time_s,
        fixed.optimization_time_s
    );
    assert!(
        scaled.evals_total() > 0,
        "the capped search must still evaluate candidates"
    );
}
