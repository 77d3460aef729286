//! Integration tests for the telemetry subsystem.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Telemetry is a strict overlay.** Running the pinned pre-refactor
//!    configurations with the no-op sink *and* with every pillar enabled
//!    reproduces the exact digests `tests/control_plane.rs` records — the
//!    sink never touches RNG, float paths, or event order.
//! 2. **The decision journal is deterministic.** For all five schemes on a
//!    sub-hour `FullEpoch` flash-crowd grid, and for an MMPP burst cell,
//!    the journal a parallel grid worker writes is byte-for-byte the
//!    journal the serial run writes.
//! 3. **Conservation checkpoints are honest.** The per-epoch
//!    `conservation` events in the journal match the outcome timeline's
//!    `HourPoint` counters exactly, and the stream closes the
//!    `Σ arrived == Σ served + Σ dropped + backlog` law.
//! 4. **Phase times count nothing twice.** One cell's top-level phases run
//!    on its own thread and never nest, so their sum fits within the
//!    cell's wall time.

use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell, GlobalRouter, Outcome, RouterConfig};
use clover::telemetry::{Phase, Telemetry, TelemetryReport, TelemetrySpec};
use clover::workload::WorkloadKind;
use std::time::Instant;

/// The `tests/control_plane.rs` pinned configuration and digests (recorded
/// before the control-plane extraction; the telemetry overlay must keep
/// reproducing them with any sink).
const PINNED_QUICK: [(&str, u64); 5] = [
    ("BASE", 0xA581_0B01_2522_FA2F),
    ("CO2OPT", 0x7471_7784_D531_E3F4),
    ("BLOVER", 0x6D35_A9B2_DB9E_C166),
    ("CLOVER", 0x98C0_B8B2_36D4_3E08),
    ("ORACLE", 0xB87C_862C_AEAB_AD2C),
];

fn quick_cfg(scheme: &str) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::parse(scheme).unwrap())
        .n_gpus(4)
        .horizon_hours(6.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
        .seed(3)
        .build()
}

/// A sub-hour full-epoch cell: 20-minute epochs under `workload`. Under a
/// flash crowd it writes the densest journal the control plane writes
/// (scaler + conservation every epoch, epoch-scaled search budgets on
/// re-plans).
fn full_epoch_cfg(scheme: &str, workload: WorkloadKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::parse(scheme).unwrap())
        .workload(workload)
        .n_gpus(2)
        .horizon_hours(2.0)
        .control_epoch_s(1200.0)
        .fidelity(Fidelity::FullEpoch)
        .seed(seed)
        .build()
}

/// Extract an unsigned-integer field from one JSONL journal line.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("field {key} in {line}"))
        + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric field {key} in {line}"))
}

#[test]
fn disabled_sink_reproduces_pinned_digests() {
    for (scheme, expected) in PINNED_QUICK {
        let out = Experiment::new(quick_cfg(scheme)).run_with(&mut Telemetry::disabled());
        assert_eq!(
            out.digest(),
            expected,
            "{scheme}: the no-op telemetry sink changed the pinned numbers \
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
fn fully_enabled_telemetry_is_a_strict_overlay() {
    // Same pinned digests with every pillar on: journal events and phase
    // scopes must not perturb a single bit.
    let configs = PINNED_QUICK.iter().map(|(s, _)| quick_cfg(s)).collect();
    let pairs = run_clusters(configs, 1, TelemetrySpec::ALL);
    for ((scheme, expected), (out, report)) in PINNED_QUICK.iter().zip(pairs.iter()) {
        assert_eq!(
            out.digest(),
            *expected,
            "{scheme}: enabling telemetry changed the pinned numbers \
             (got 0x{:016X})",
            out.digest()
        );
        let journal = report.journal.as_ref().expect("journal enabled");
        assert!(!journal.is_empty(), "{scheme}: empty journal");
        assert!(report.phases.is_some(), "{scheme}: missing phase totals");
    }
}

#[test]
fn journal_is_byte_identical_serial_vs_parallel() {
    // Every scheme under a flash crowd, plus the MMPP burst path.
    let mut cells: Vec<(&str, ExperimentConfig)> = PINNED_QUICK
        .iter()
        .map(|&(s, _)| (s, full_epoch_cfg(s, WorkloadKind::flash_crowd(), 3)))
        .collect();
    cells.push((
        "CLOVER/mmpp",
        full_epoch_cfg("CLOVER", WorkloadKind::mmpp(), 3),
    ));
    let configs: Vec<ExperimentConfig> = cells.iter().map(|(_, c)| c.clone()).collect();
    let serial = run_clusters(configs.clone(), 1, TelemetrySpec::JOURNAL);
    let parallel = run_clusters(configs, 4, TelemetrySpec::JOURNAL);
    assert_eq!(serial.len(), cells.len());
    for ((scheme, _), ((so, sr), (po, pr))) in cells.iter().zip(serial.iter().zip(parallel.iter()))
    {
        assert_eq!(so.digest(), po.digest(), "{scheme}: outcome diverged");
        let sj = sr.journal.as_ref().expect("serial journal");
        let pj = pr.journal.as_ref().expect("parallel journal");
        assert!(!sj.is_empty(), "{scheme}: empty journal");
        assert_eq!(
            sj.as_str(),
            pj.as_str(),
            "{scheme}: journal bytes diverged between serial and parallel runs"
        );
        assert_eq!(sr.journal_digest(), pr.journal_digest());
    }
}

#[test]
fn journal_exposes_the_epoch_scaled_search_budget() {
    // 1200 s epochs scale the paper's 300 s hourly budget to 100 s
    // (SearchBudget::EpochScaled); every `search` event must carry it, so
    // the cadence-aware budget is verifiable from the journal alone.
    let cfg = full_epoch_cfg("CLOVER", WorkloadKind::flash_crowd(), 3);
    let pairs = run_clusters(vec![cfg], 1, TelemetrySpec::JOURNAL);
    let (out, report) = &pairs[0];
    let journal = report.journal.as_ref().expect("journal enabled");
    let search_lines: Vec<&str> = journal
        .as_str()
        .lines()
        .filter(|l| l.contains("\"event\":\"search\""))
        .collect();
    assert!(!search_lines.is_empty(), "CLOVER reported no search events");
    // One `search` event per scheduler invocation: the journal alone
    // counts every search the outcome records.
    assert_eq!(
        search_lines.len(),
        out.invocations.len(),
        "search events vs recorded invocations"
    );
    for line in &search_lines {
        assert!(
            line.contains("\"budget_s\":100"),
            "search event without the epoch-scaled 100 s budget: {line}"
        );
        let iterations = field_u64(line, "iterations");
        let accepted = field_u64(line, "accepted");
        let rejected = field_u64(line, "rejected");
        assert!(iterations > 0, "search event with zero iterations: {line}");
        // Evaluations = accepted + rejected; the start center is evaluated
        // (and accepted) outside the iteration count, and iterations whose
        // proposal came back empty evaluate nothing.
        assert!(
            accepted + rejected <= iterations + 1,
            "ledger inconsistency: {line}"
        );
    }
}

#[test]
fn conservation_checkpoints_match_the_timeline() {
    // The continuous serving path: 2-minute epochs, state carried across
    // every boundary — the configuration where conservation is non-trivial
    // (backlog crosses epoch seams).
    let cfg = ExperimentConfig::builder(Application::ImageClassification)
        .workload(WorkloadKind::flash_crowd())
        .n_gpus(2)
        .horizon_hours(1.0)
        .control_epoch_s(120.0)
        .fidelity(Fidelity::FullEpoch)
        .sla_headroom(2.0)
        .seed(7)
        .build();
    let mut pairs = run_clusters(vec![cfg], 1, TelemetrySpec::JOURNAL);
    let (out, report) = pairs.remove(0);
    let journal = report.journal.expect("journal enabled");
    let lines: Vec<&str> = journal
        .as_str()
        .lines()
        .filter(|l| l.contains("\"event\":\"conservation\""))
        .collect();
    assert_eq!(
        lines.len(),
        out.timeline.len(),
        "one conservation checkpoint per epoch"
    );
    let mut arrived = 0u64;
    let mut served = 0u64;
    let mut dropped = 0u64;
    let mut closing_backlog = 0u64;
    for (line, point) in lines.iter().zip(out.timeline.iter()) {
        assert_eq!(field_u64(line, "arrived"), point.arrived, "{line}");
        assert_eq!(field_u64(line, "served"), point.served, "{line}");
        assert_eq!(field_u64(line, "dropped"), point.dropped, "{line}");
        assert_eq!(field_u64(line, "backlog"), point.backlog, "{line}");
        arrived += point.arrived;
        served += point.served;
        dropped += point.dropped;
        closing_backlog = point.backlog;
    }
    assert!(arrived > 0, "the crowd arrived");
    assert_eq!(
        arrived,
        served + dropped + closing_backlog,
        "the journal's conservation stream must close the per-boundary law"
    );
}

/// Runs `run` against a profiling-only sink and asserts that its top-level
/// phase seconds are positive and fit within its own wall time.
fn assert_top_level_phases_within_wall(label: &str, run: impl FnOnce(&mut Telemetry)) {
    let mut telemetry = Telemetry::new(TelemetrySpec {
        profiling: true,
        ..TelemetrySpec::DISABLED
    });
    let t0 = Instant::now();
    run(&mut telemetry);
    let wall = t0.elapsed().as_secs_f64();
    let phases = telemetry.take_report().phases.expect("profiling enabled");
    let top: f64 = Phase::TOP_LEVEL.into_iter().map(|p| phases.secs(p)).sum();
    assert!(top > 0.0, "{label}: no phase time recorded");
    assert!(
        top <= wall,
        "{label}: top-level phases sum to {top:.6} s, over the cell's {wall:.6} s wall"
    );
}

#[test]
fn top_level_phases_fit_within_each_cells_wall() {
    // One cell runs its top-level scopes (plan, des, scaler) on its own
    // thread, one at a time, so their sum cannot exceed the cell's wall on
    // any host. A nested phase (`Search` inside `Plan`, `Carry` inside
    // `Des`) counted as top-level breaks the bound.
    let mut cells: Vec<(String, ExperimentConfig)> = Vec::new();
    for app in Application::ALL {
        for scheme in [SchemeKind::Base, SchemeKind::Clover, SchemeKind::Oracle] {
            let cfg = ExperimentConfig::builder(app)
                .scheme(scheme)
                .n_gpus(4)
                .horizon_hours(2.0)
                .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
                .seed(3)
                .build();
            cells.push((format!("{app}/{scheme}"), cfg));
        }
    }
    cells.push((
        "full-epoch CLOVER".to_string(),
        full_epoch_cfg("CLOVER", WorkloadKind::flash_crowd(), 3),
    ));
    for (label, cfg) in cells {
        let experiment = Experiment::new(cfg);
        assert_top_level_phases_within_wall(&label, |t| {
            experiment.run_with(t);
        });
    }
    let router = GlobalRouter::new(
        RouterConfig::builder(Application::LanguageModeling)
            .policy("carbon-greedy")
            .scheme(SchemeKind::Clover)
            .control_epoch_s(600.0)
            .n_gpus_per_region(2)
            .horizon_hours(2.0)
            .seed(11)
            .build(),
    );
    assert_top_level_phases_within_wall("router CLOVER", |t| {
        router.run_with(t);
    });
}
