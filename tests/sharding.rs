//! Pins the intra-epoch DES sharding guarantees end to end: a full-epoch
//! experiment cell split into K shards produces **byte-identical** outcomes
//! at every thread count (1, 2, 4, 8) and every shard count (1, 2, 4), for
//! all five schemes — and every shard seam closes its conservation law
//! exactly. Recorded digests pin the physics itself at every shard count,
//! with and without mid-epoch faults. Together with
//! `tests/par_determinism.rs` (grid-level fan-out)
//! this is the regression tripwire for the parallel engine: LPT dispatch
//! may reorder *claiming*, sharding may reorder *execution*, but neither is
//! allowed to move a single bit of output.

use clover::core::chaos::{ChaosConfig, FaultSpec};
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::models::PerfModel;
use clover::serving::{Deployment, ServingCarry, ServingSim};
use clover::simkit::SimDuration;
use clover::telemetry::TelemetrySpec;
use clover::workload::{PoissonProcess, WorkloadKind};

/// One continuous full-epoch cell: the only fidelity the sharded engine
/// serves (representative windows are too small to shard).
fn cfg(scheme: SchemeKind, shards: usize) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(WorkloadKind::flash_crowd())
        .fidelity(Fidelity::FullEpoch)
        .control_epoch_s(300.0)
        .n_gpus(4)
        .horizon_hours(0.25)
        .seed(2023)
        .des_shards(shards)
        .build()
}

/// The chaos variant of [`cfg`]: GPU failures at a 30-minute MTBF plus
/// instance crashes, harsh enough that every cell's 15-minute horizon
/// sees at least one mid-epoch kill and crash inside the DES.
fn chaos_cfg(scheme: SchemeKind, shards: usize) -> ExperimentConfig {
    let mut c = cfg(scheme, shards);
    c.chaos = ChaosConfig::resilience(0.5).with(FaultSpec::InstanceCrashes {
        rate_per_hour: 12.0,
    });
    c
}

/// The full matrix this suite pins: all five schemes × shard counts 1/2/4.
fn grid() -> Vec<ExperimentConfig> {
    grid_of(cfg)
}

fn grid_of(make: fn(SchemeKind, usize) -> ExperimentConfig) -> Vec<ExperimentConfig> {
    SchemeKind::ALL
        .into_iter()
        .flat_map(|scheme| [1usize, 2, 4].map(|shards| make(scheme, shards)))
        .collect()
}

/// Digests of [`grid`] (scheme, shard count, digest) recorded while the
/// classic window, the unsharded continuous epoch and each shard still ran
/// on separate DES loops. The single-kernel engine must reproduce them.
const KERNEL_PINS: [(&str, usize, u64); 15] = [
    ("BASE", 1, 0x31B5_90F6_8D61_632D),
    ("BASE", 2, 0xCA38_61C1_F2C3_73B9),
    ("BASE", 4, 0xE271_DAC3_1E6B_AF4D),
    ("CO2OPT", 1, 0x790E_0AFF_3C6F_3F67),
    ("CO2OPT", 2, 0x7152_24E8_01B9_2602),
    ("CO2OPT", 4, 0x1FBE_1E52_1074_C5A8),
    ("BLOVER", 1, 0x649B_35E8_25C3_C4D7),
    ("BLOVER", 2, 0x8D7E_A428_6AA3_C7E6),
    ("BLOVER", 4, 0xF41C_2E5B_0D8D_E707),
    ("CLOVER", 1, 0x373E_B742_EE0A_936A),
    ("CLOVER", 2, 0x05FC_E96F_A864_9EB2),
    ("CLOVER", 4, 0x0C1A_22EE_40BE_4127),
    ("ORACLE", 1, 0x1653_ADBA_E834_A1EE),
    ("ORACLE", 2, 0x8A1A_48DA_75D0_8C61),
    ("ORACLE", 4, 0xE065_23AB_C864_2A39),
];

/// Same vintage as [`KERNEL_PINS`], for the chaos grid of [`chaos_cfg`].
const KERNEL_PINS_CHAOS: [(&str, usize, u64); 15] = [
    ("BASE", 1, 0xA2AB_910F_DCBB_45E4),
    ("BASE", 2, 0xFE42_AD17_3DBF_6343),
    ("BASE", 4, 0xB5E7_6A92_6CC0_8799),
    ("CO2OPT", 1, 0x5F84_49C6_4B44_7E98),
    ("CO2OPT", 2, 0x45AA_F936_8D3C_44C3),
    ("CO2OPT", 4, 0x111C_AC8E_1F8A_9EE2),
    ("BLOVER", 1, 0xA1D3_0EA6_5D80_9F23),
    ("BLOVER", 2, 0xF973_3EBD_4B05_1000),
    ("BLOVER", 4, 0x8F05_0A5A_28B1_E0A2),
    ("CLOVER", 1, 0xF1DC_92AC_69AD_039A),
    ("CLOVER", 2, 0x54CF_1CD8_B320_6196),
    ("CLOVER", 4, 0x6CD2_BAE7_65C3_8566),
    ("ORACLE", 1, 0x0DAA_04AC_6EF8_5C61),
    ("ORACLE", 2, 0x3BBD_F0EA_B200_7CA8),
    ("ORACLE", 4, 0xE9D4_AC7C_EA49_E7B9),
];

fn assert_pinned(outcomes: &[ExperimentOutcome], pins: &[(&str, usize, u64)], label: &str) {
    assert_eq!(outcomes.len(), pins.len(), "{label}: grid size changed");
    for (out, &(name, shards, want)) in outcomes.iter().zip(pins) {
        assert_eq!(out.scheme, name, "{label}: grid order changed");
        assert_eq!(
            out.digest(),
            want,
            "{label} {name} K={shards}: DES physics drifted (got 0x{:016X})",
            out.digest()
        );
    }
}

#[test]
fn sharded_grid_reproduces_the_recorded_digests() {
    assert_pinned(&Experiment::run_cells(grid(), 2), &KERNEL_PINS, "chaos off");
}

/// Kills and crashes land mid-epoch in every cell (checked from the
/// journal), so the pins also cover the kernel's fault handling at K = 1
/// and inside shards.
#[test]
fn faulted_sharded_grid_reproduces_the_recorded_digests() {
    let pairs = Experiment::run_cells_with(grid_of(chaos_cfg), 2, TelemetrySpec::JOURNAL);
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
    let outcomes: Vec<ExperimentOutcome> = pairs.into_iter().map(|(o, _)| o).collect();
    assert_pinned(&outcomes, &KERNEL_PINS_CHAOS, "chaos on");
}

/// The whole scheme × shard-count matrix fanned out as one grid (LPT
/// claiming over heterogeneous cells) reproduces the serial digests at
/// every thread count.
#[test]
fn sharded_grid_is_bit_identical_across_thread_counts() {
    let reference: Vec<u64> = Experiment::run_cells(grid(), 1)
        .iter()
        .map(ExperimentOutcome::digest)
        .collect();
    for threads in [2, 4, 8] {
        let digests: Vec<u64> = Experiment::run_cells(grid(), threads)
            .iter()
            .map(ExperimentOutcome::digest)
            .collect();
        assert_eq!(reference, digests, "{threads} threads diverged");
    }
}

/// A single sharded cell run alone gets the grid's whole thread budget as
/// shard threads (`shard_thread_budget = threads / cells`), so this sweep
/// exercises genuinely concurrent shard execution through the full
/// experiment stack — and must still match the 1-thread reference bit for
/// bit.
#[test]
fn concurrent_shard_execution_matches_serial() {
    for scheme in SchemeKind::ALL {
        let single = vec![cfg(scheme, 4)];
        let reference = Experiment::run_cells(single.clone(), 1)[0].digest();
        for threads in [2, 4, 8] {
            let got = Experiment::run_cells(single.clone(), threads)[0].digest();
            assert_eq!(reference, got, "{scheme}: {threads} shard threads diverged");
        }
    }
}

/// Shard count is part of the experiment's physics (independent per-shard
/// service streams, per-shard queue bounds): K=1 and K=4 are different —
/// deterministically different — experiments. This pins that nobody
/// "optimizes" the sharded path into silently reusing the unsharded one.
#[test]
fn shard_count_is_part_of_the_configuration() {
    let unsharded = Experiment::run_cells(vec![cfg(SchemeKind::Clover, 1)], 1)[0].digest();
    let sharded = Experiment::run_cells(vec![cfg(SchemeKind::Clover, 4)], 1)[0].digest();
    assert_ne!(
        unsharded, sharded,
        "4-shard run unexpectedly reproduced the unsharded digest"
    );
}

/// Every shard seam of every epoch closes its conservation law exactly:
/// `carried_in + arrived == served + dropped + carried_out`, and the
/// per-shard arrivals sum to the window's.
#[test]
fn every_shard_seam_closes_conservation() {
    let family = Application::ImageClassification.family();
    let deployment = Deployment::base(&family, 4);
    let mut sim = ServingSim::new(family, PerfModel::a100(), deployment, 7);
    sim.set_intra_epoch_shards(4);
    sim.set_shard_threads(Some(4));
    let mut carry = ServingCarry::default();
    for epoch in 0..6 {
        let mut arrivals = PoissonProcess::new(500.0);
        let (w, next) =
            sim.run_epoch_continuous(&mut arrivals, SimDuration::from_secs(45.0), carry);
        carry = next;
        assert_eq!(w.shard_seams.len(), 4, "epoch {epoch}: seam count");
        let mut arrived = 0;
        for seam in &w.shard_seams {
            assert_eq!(
                seam.leak(),
                0,
                "epoch {epoch}, shard {}: conservation leak",
                seam.shard
            );
            arrived += seam.arrived;
        }
        assert_eq!(arrived, w.arrived, "epoch {epoch}: arrivals split");
    }
}
