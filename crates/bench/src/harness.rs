//! Common scaffolding for the figure specs in [`crate::figures`].
//!
//! The environment variable `CLOVER_BENCH_SCALE` (default 1.0) scales the
//! simulated horizon so smoke runs finish quickly; 1.0 is the paper's full
//! 48 h. [`std_config`] is the standard Sec. 5.1 cell most paper figures
//! share; the journal helpers read and write the decision-journal
//! artifacts and gates of the beyond-the-paper figures. Tables print to
//! stdout with `println!`; a failed check prints to stderr.

use clover_carbon::Region;
use clover_core::experiment::{ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_router::Outcome;
use clover_telemetry::TelemetryReport;

/// Prints a figure/table header in a uniform style.
pub fn header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Prints one outcome as a comparison row (Fig. 9/10/16 style).
pub fn outcome_row(out: &ExperimentOutcome) {
    println!(
        "{:<8} {:<14} carbon_save={:6.1}%  acc_gain={:6.2}%  p95/base={:5.2}  sla={}  opt={:4.2}%",
        out.scheme,
        out.app,
        out.carbon_saving_pct,
        out.accuracy_gain_pct,
        out.p95_norm_to_base,
        if out.sla_met { "ok " } else { "VIOL" },
        out.optimization_fraction * 100.0
    );
}

/// Reads the benchmark scale from `CLOVER_BENCH_SCALE` (1 = paper scale).
/// Smaller values shrink the horizon for smoke runs.
///
/// # Panics
/// When the variable is set to anything but a number in (0, 1].
pub fn bench_scale() -> f64 {
    scale_from(std::env::var("CLOVER_BENCH_SCALE").ok().as_deref())
}

/// The scale a `CLOVER_BENCH_SCALE` value selects; unset means 1.0. A
/// value outside (0, 1] panics rather than fall back to full scale, so a
/// typo cannot turn a seconds-long smoke run into a full-scale one.
fn scale_from(value: Option<&str>) -> f64 {
    let Some(v) = value else {
        return 1.0;
    };
    match v.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => scale,
        _ => panic!("CLOVER_BENCH_SCALE={v:?}: expected a number in (0, 1]"),
    }
}

/// Horizon in hours after scaling (paper: 48 h; floor 6 h).
pub fn scaled_horizon() -> f64 {
    (48.0 * bench_scale()).max(6.0)
}

/// The standard evaluation experiment of Sec. 5.1: 10 GPUs, λ = 0.5,
/// US CISO March trace, 48 h (scaled), fixed master seed.
pub fn std_config(app: Application, scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig::builder(app)
        .scheme(scheme)
        .region(Region::CisoMarch)
        .n_gpus(10)
        .horizon_hours(scaled_horizon())
        .seed(2023)
        .build()
}

/// Writes a figure's decision-journal artifact to `path`: for each cell,
/// its `marker` line (a one-line JSON object naming the cell), then that
/// cell's journal verbatim. Journals are deterministic, so the artifact
/// diffs cleanly across commits.
///
/// # Panics
/// When `path` cannot be written.
pub fn write_journals<'a>(
    path: &str,
    cells: impl IntoIterator<Item = (String, &'a TelemetryReport)>,
) {
    let mut out = String::new();
    for (marker, report) in cells {
        out.push_str(&marker);
        out.push('\n');
        out.push_str(journal(report));
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The text of `report`'s decision journal, empty when none was kept.
pub fn journal(report: &TelemetryReport) -> &str {
    report.journal.as_ref().map_or("", |j| j.as_str())
}

/// Lines of `journal` recording an `event` event.
pub fn count_events(journal: &str, event: &str) -> usize {
    let needle = format!("\"event\":\"{event}\"");
    journal.lines().filter(|l| l.contains(&needle)).count()
}

/// Conservation checkpoints in `journal` that did not close (leak ≠ 0).
pub fn journal_leaks(journal: &str) -> usize {
    journal
        .lines()
        .filter(|l| l.contains("\"event\":\"conservation\"") && !l.contains("\"leak\":0"))
        .count()
}

/// The determinism gate: each cell's serial replay must reproduce its
/// parallel run's outcome digest and decision journal. Prints every
/// diverging cell, named by its label, to stderr.
///
/// # Errors
/// When any cell diverged, naming `gate` and how many did, and when the
/// labels, parallel runs and serial runs are not equally many or are none,
/// so that a short or empty replay cannot pass.
pub fn replay_gate(
    gate: &str,
    labels: impl IntoIterator<Item = impl std::fmt::Display>,
    parallel: &[&(Outcome, TelemetryReport)],
    serial: &[(Outcome, TelemetryReport)],
) -> Result<(), String> {
    let labels: Vec<_> = labels.into_iter().collect();
    if labels.is_empty() || labels.len() != parallel.len() || labels.len() != serial.len() {
        return Err(format!(
            "{gate} determinism gate FAILED: {} labels, {} parallel runs, {} serial runs",
            labels.len(),
            parallel.len(),
            serial.len()
        ));
    }
    let mut mismatches = 0;
    for ((label, (p_out, p_rep)), (s_out, s_rep)) in labels.iter().zip(parallel).zip(serial) {
        let (sd, pd) = (s_out.digest(), p_out.digest());
        let journals_match = journal(s_rep) == journal(p_rep);
        if sd != pd || !journals_match {
            mismatches += 1;
            eprintln!(
                "DIGEST MISMATCH {label}: serial {sd:#018X} != parallel {pd:#018X} (journals match: {journals_match})"
            );
        }
    }
    if mismatches > 0 {
        return Err(format!(
            "{gate} determinism gate FAILED: {mismatches} cell(s) diverged"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{replay_gate, scale_from};

    #[test]
    fn scale_is_full_when_unset_and_accepts_the_unit_interval() {
        assert_eq!(scale_from(None), 1.0);
        assert_eq!(scale_from(Some("0.125")), 0.125);
        assert_eq!(scale_from(Some("1")), 1.0);
    }

    #[test]
    fn scale_rejects_every_value_outside_it() {
        for bad in ["", "0.l25", "0", "-0.5", "1.5", "NaN", "inf"] {
            let err = std::panic::catch_unwind(|| scale_from(Some(bad)))
                .expect_err(&format!("{bad:?} was accepted"));
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("CLOVER_BENCH_SCALE") && msg.contains("(0, 1]"),
                "{bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn the_replay_gate_fails_on_an_empty_or_short_replay() {
        let empty = replay_gate("empty", Vec::<&str>::new(), &[], &[]).unwrap_err();
        assert!(
            empty.contains("0 labels, 0 parallel runs, 0 serial runs"),
            "{empty}"
        );
        let short = replay_gate("short", ["cell"], &[], &[]).unwrap_err();
        assert!(
            short.contains("1 labels, 0 parallel runs, 0 serial runs"),
            "{short}"
        );
    }
}
