//! Resilience study (beyond the paper): what deterministic chaos does to
//! the five schemes — and what it provably does not do to the numbers.
//!
//! The grid sweeps a fault-severity axis across all five paper schemes.
//! Each severity level is a [`ChaosConfig::resilience`] preset keyed by
//! GPU MTBF: board failures with 2-hour repairs, rarer half-fleet
//! brownouts, 6-hour carbon-feed gaps, and a +15% biased / 10%-noisy
//! demand forecast. All faults are drawn up front from the experiment
//! seed, so every cell is exactly reproducible.
//!
//! Three levels tell the story:
//!
//! 1. **chaos-off** — the unfaulted reference; digests here are the same
//!    pins `tests/chaos.rs` locks, proving the chaos plumbing is inert
//!    when disabled.
//! 2. **mtbf-24h** — gentle chaos: roughly one board failure per day per
//!    GPU. Schemes ride through on the scaler's warming path; carbon and
//!    tail latency move, conservation holds at every epoch seam.
//! 3. **mtbf-6h** — harsh chaos: failures land faster than repairs drain.
//!    The fleet spends real time degraded (including fully dead stretches
//!    where arrivals queue and shed at the bound); no scheme deadlocks.
//!
//! The run then replays the harsh level **serially** and compares digests
//! and decision journals byte-for-byte against the parallel grid — the
//! chaos-enabled determinism gate. A mismatch exits non-zero, so CI fails
//! the build rather than uploading unreproducible numbers.
//!
//! Every cell's decision journal (fault/repair onsets, fallback epochs,
//! conservation checkpoints) is written to
//! `FIG_resilience_journal.jsonl` — the artifact CI uploads so a
//! resilience regression can be read from the recorded fault timeline
//! without rerunning anything. See `docs/resilience.md` for the fault
//! model and how to read this figure.

use clover_bench::{
    bench_threads, count_events, header, log_line, scaled_horizon, write_journals, LogLevel,
};
use clover_core::autoscale::ScalingPolicy;
use clover_core::chaos::ChaosConfig;
use clover_core::control::Fidelity;
use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_telemetry::{TelemetryReport, TelemetrySpec};

struct Level {
    label: &'static str,
    mtbf_hours: f64,
}

fn levels() -> Vec<Level> {
    vec![
        Level {
            label: "chaos-off",
            mtbf_hours: 0.0,
        },
        Level {
            label: "mtbf-24h",
            mtbf_hours: 24.0,
        },
        Level {
            label: "mtbf-6h",
            mtbf_hours: 6.0,
        },
    ]
}

fn config(scheme: &SchemeKind, level: &Level) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(*scheme)
        .chaos(ChaosConfig::resilience(level.mtbf_hours))
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .fidelity(Fidelity::FullEpoch)
        .n_gpus(6)
        .min_gpus(1)
        .horizon_hours(scaled_horizon().max(12.0))
        .sla_headroom(2.2)
        .seed(2023)
        .build()
}

fn main() {
    header(
        "Fig. A3 (beyond the paper)",
        "deterministic chaos: fault injection and degraded-data fallbacks across all five schemes",
    );
    let levels = levels();
    let schemes = SchemeKind::ALL;
    let mut labels: Vec<String> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for level in &levels {
        for scheme in &schemes {
            labels.push(format!("{}/{}", scheme.label(), level.label));
            configs.push(config(scheme, level));
        }
    }
    let pairs = Experiment::run_cells_with(configs, bench_threads(), TelemetrySpec::JOURNAL);

    // One JSONL artifact for the whole figure: fault/repair onsets,
    // fallback epochs and conservation checkpoints, per cell.
    let journal_path = "FIG_resilience_journal.jsonl";
    write_journals(
        journal_path,
        labels.iter().zip(pairs.iter()).map(|(label, (_, report))| {
            (
                format!("{{\"event\":\"cell\",\"label\":\"{label}\"}}"),
                report,
            )
        }),
    );

    log_line!(
        LogLevel::Info,
        "{:<20} {:>10} {:>10} {:>8} {:>6} {:>7} {:>8} {:>9}",
        "cell",
        "carbon_kg",
        "served",
        "p95/sla",
        "sla",
        "faults",
        "repairs",
        "fallbacks"
    );
    for (label, (out, report)) in labels.iter().zip(pairs.iter()) {
        let journal = report.journal.as_ref().map(|j| j.as_str()).unwrap_or("");
        log_line!(
            LogLevel::Info,
            "{:<20} {:>10.2} {:>10.0} {:>8.2} {:>6} {:>7} {:>8} {:>9}",
            label,
            out.total_carbon_g / 1000.0,
            out.served_scaled,
            out.p95_s / out.sla_p95_s,
            if out.sla_met { "ok" } else { "VIOL" },
            count_events(journal, "fault"),
            count_events(journal, "repair"),
            count_events(journal, "fallback"),
        );
    }
    log_line!(LogLevel::Info, "");

    // Liveness: chaos degrades service, it must never halt it. Every cell
    // — including harsh chaos with fully-dead stretches — serves work.
    let starved: Vec<&String> = labels
        .iter()
        .zip(pairs.iter())
        .filter(|(_, (out, _))| out.served_scaled <= 0.0)
        .map(|(label, _)| label)
        .collect();
    assert!(
        starved.is_empty(),
        "cells served nothing under chaos: {starved:?}"
    );

    // Conservation under fire: every epoch checkpoint in every journal
    // must close the law exactly (leak 0), faulted or not.
    let leaks: usize = pairs
        .iter()
        .filter_map(|(_, r)| r.journal.as_ref())
        .flat_map(|j| j.as_str().lines())
        .filter(|l| l.contains("\"event\":\"conservation\"") && !l.contains("\"leak\":0"))
        .count();
    assert_eq!(leaks, 0, "conservation leaked at {leaks} epoch boundaries");
    log_line!(
        LogLevel::Info,
        "liveness: all {} cells served; conservation closed at every epoch boundary",
        labels.len()
    );

    // Degradation summary at the harsh level, per scheme vs its own
    // chaos-off cell — the resilience cost in carbon and tail.
    let cell = |scheme: &SchemeKind, level: &str| -> &(ExperimentOutcome, TelemetryReport) {
        let want = format!("{}/{}", scheme.label(), level);
        labels
            .iter()
            .position(|l| *l == want)
            .map(|i| &pairs[i])
            .expect("cell present")
    };
    for scheme in &schemes {
        let clean = &cell(scheme, "chaos-off").0;
        let harsh = &cell(scheme, "mtbf-6h").0;
        log_line!(
            LogLevel::Info,
            "{:<8} harsh chaos: carbon {:+.1}%, p95/sla {:.2} -> {:.2}, served {:.1}% of clean",
            scheme.label(),
            (harsh.total_carbon_g - clean.total_carbon_g) / clean.total_carbon_g * 100.0,
            clean.p95_s / clean.sla_p95_s,
            harsh.p95_s / harsh.sla_p95_s,
            harsh.served_scaled / clean.served_scaled * 100.0,
        );
    }
    log_line!(LogLevel::Info, "");

    // The chaos-enabled determinism gate: replay the harsh level serially
    // and require byte-identical digests and journals against the parallel
    // grid. This is the property that makes a resilience study citable —
    // the faults are part of the experiment, not noise.
    let harsh_level = &levels[2];
    let serial_configs: Vec<ExperimentConfig> =
        schemes.iter().map(|s| config(s, harsh_level)).collect();
    let serial = Experiment::run_cells_with(serial_configs, 1, TelemetrySpec::JOURNAL);
    let mut mismatches = 0usize;
    for (scheme, (s_out, s_rep)) in schemes.iter().zip(serial.iter()) {
        let (p_out, p_rep) = cell(scheme, harsh_level.label);
        let (sd, pd) = (s_out.digest(), p_out.digest());
        let journals_match = s_rep.journal.as_ref().map(|j| j.as_str())
            == p_rep.journal.as_ref().map(|j| j.as_str());
        if sd != pd || !journals_match {
            mismatches += 1;
            eprintln!(
                "DIGEST MISMATCH {}: serial {sd:#018X} != parallel {pd:#018X} (journals match: {journals_match})",
                scheme.label()
            );
        }
    }
    if mismatches > 0 {
        eprintln!("chaos determinism gate FAILED: {mismatches} scheme(s) diverged");
        std::process::exit(1);
    }
    log_line!(
        LogLevel::Info,
        "chaos determinism gate: serial == parallel digests for all {} schemes at {}",
        schemes.len(),
        harsh_level.label
    );
    log_line!(
        LogLevel::Info,
        "wrote {journal_path} ({} cells' decision journals)",
        labels.len()
    );
}
