//! Pins the continuous DES kernel end to end: a full-epoch experiment cell
//! of every scheme reproduces its recorded digest, with and without
//! mid-epoch faults, and the five-cell grid is **byte-identical** at every
//! thread count (1, 2, 4, 8). `tests/par_determinism.rs` covers the same
//! fan-out on representative windows only; this is its full-epoch
//! counterpart, where carried serving state crosses every boundary.

use clover::core::chaos::{ChaosConfig, FaultSpec};
use clover::core::control::Fidelity;
use clover::core::experiment::{ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell, Outcome};
use clover::telemetry::{TelemetryReport, TelemetrySpec};
use clover::workload::WorkloadKind;

/// One continuous full-epoch cell.
fn cfg(scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(WorkloadKind::flash_crowd())
        .fidelity(Fidelity::FullEpoch)
        .control_epoch_s(300.0)
        .n_gpus(4)
        .horizon_hours(0.25)
        .seed(2023)
        .build()
}

/// The chaos variant of [`cfg`]: GPU failures at a 30-minute MTBF plus
/// instance crashes, harsh enough that every cell's 15-minute horizon
/// sees at least one mid-epoch kill and crash inside the DES.
fn chaos_cfg(scheme: SchemeKind) -> ExperimentConfig {
    let mut c = cfg(scheme);
    c.chaos = ChaosConfig::resilience(0.5).with(FaultSpec::InstanceCrashes {
        rate_per_hour: 12.0,
    });
    c
}

/// The grid this suite pins: one cell per scheme.
fn grid_of(make: fn(SchemeKind) -> ExperimentConfig) -> Vec<ExperimentConfig> {
    SchemeKind::ALL.into_iter().map(make).collect()
}

/// Digests of [`cfg`]'s grid (scheme, digest) recorded while the classic
/// window and the continuous epoch still ran on separate DES loops. The
/// single-kernel engine must reproduce them.
const KERNEL_PINS: [(&str, u64); 5] = [
    ("BASE", 0x31B5_90F6_8D61_632D),
    ("CO2OPT", 0x790E_0AFF_3C6F_3F67),
    ("BLOVER", 0x649B_35E8_25C3_C4D7),
    ("CLOVER", 0x373E_B742_EE0A_936A),
    ("ORACLE", 0x1653_ADBA_E834_A1EE),
];

/// Same vintage as [`KERNEL_PINS`], for the chaos grid of [`chaos_cfg`].
const KERNEL_PINS_CHAOS: [(&str, u64); 5] = [
    ("BASE", 0xA2AB_910F_DCBB_45E4),
    ("CO2OPT", 0x5F84_49C6_4B44_7E98),
    ("BLOVER", 0xA1D3_0EA6_5D80_9F23),
    ("CLOVER", 0xF1DC_92AC_69AD_039A),
    ("ORACLE", 0x0DAA_04AC_6EF8_5C61),
];

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

fn outcomes(pairs: Vec<(ExperimentOutcome, TelemetryReport)>) -> Vec<ExperimentOutcome> {
    pairs.into_iter().map(|(out, _)| out).collect()
}

fn assert_pinned(outcomes: &[ExperimentOutcome], pins: &[(&str, u64)], label: &str) {
    assert_eq!(outcomes.len(), pins.len(), "{label}: grid size changed");
    for (out, &(name, want)) in outcomes.iter().zip(pins) {
        assert_eq!(out.scheme, name, "{label}: grid order changed");
        assert_eq!(
            out.digest(),
            want,
            "{label} {name}: DES physics drifted (got 0x{:016X})",
            out.digest()
        );
    }
}

#[test]
fn full_epoch_grid_reproduces_the_recorded_digests() {
    assert_pinned(
        &outcomes(run_clusters(grid_of(cfg), 2, TelemetrySpec::DISABLED)),
        &KERNEL_PINS,
        "chaos off",
    );
}

/// Kills and crashes land mid-epoch in every cell (checked from the
/// journal), so the pins also cover the kernel's fault handling.
#[test]
fn faulted_full_epoch_grid_reproduces_the_recorded_digests() {
    let pairs = run_clusters(grid_of(chaos_cfg), 2, TelemetrySpec::JOURNAL);
    for (out, report) in &pairs {
        let journal = report.journal.as_ref().expect("journal enabled").as_str();
        for kind in ["kill", "crash"] {
            assert!(
                journal.contains(&format!("\"kind\":\"{kind}\"")),
                "{}: no {kind} fault reached the DES",
                out.scheme
            );
        }
    }
    assert_pinned(&outcomes(pairs), &KERNEL_PINS_CHAOS, "chaos on");
}

/// The five-scheme grid fanned out as one grid (LPT claiming over
/// heterogeneous cells) reproduces the serial digests at every thread
/// count.
#[test]
fn full_epoch_grid_is_bit_identical_across_thread_counts() {
    let digests = |threads| -> Vec<u64> {
        run_clusters(grid_of(cfg), threads, TelemetrySpec::DISABLED)
            .iter()
            .map(|(out, _)| out.digest())
            .collect()
    };
    let reference = digests(1);
    for threads in [2, 4, 8] {
        assert_eq!(reference, digests(threads), "{threads} threads diverged");
    }
}
