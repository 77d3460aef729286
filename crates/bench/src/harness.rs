//! Common scaffolding for the figure-regeneration binaries.
//!
//! Every figure/table of the paper has a binary in `src/bin/`; they share
//! the experiment plumbing here. The environment variable
//! `CLOVER_BENCH_SCALE` (default 1.0) scales the simulated horizon so smoke
//! runs finish quickly; EXPERIMENTS.md records full-scale (48 h) runs.
//!
//! Experiment grids (scheme × application × seed × λ) fan out over the
//! deterministic parallel engine: [`run_cells`]/[`run_grid`] go through
//! `Experiment::run_cells`, which builds every cell first (so cells that
//! share a BASE reference or calibration window compute it once) and then
//! runs them through `clover-simkit`'s LPT-ordered `par_map_lpt`. The
//! figures print byte-identical numbers at any thread count
//! (`CLOVER_THREADS` to pin, default: the machine's parallelism).
//!
//! Output goes through `clover-telemetry`'s leveled [`log_line!`] facility:
//! `CLOVER_LOG=quiet` silences the tables (machine-read artifacts like
//! `BENCH_engine.json` are still written), `info` (the default) prints
//! them, `debug` adds per-cell diagnostics.

use clover_carbon::Region;
use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
pub use clover_telemetry::{log_line, LogLevel};

/// Prints a figure/table header in a uniform style.
pub fn header(id: &str, caption: &str) {
    log_line!(
        LogLevel::Info,
        "================================================================"
    );
    log_line!(LogLevel::Info, "{id}: {caption}");
    log_line!(
        LogLevel::Info,
        "================================================================"
    );
}

/// Prints one outcome as a comparison row (Fig. 9/10/16 style).
pub fn outcome_row(out: &ExperimentOutcome) {
    log_line!(
        LogLevel::Info,
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
pub fn bench_scale() -> f64 {
    std::env::var("CLOVER_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0.0 && v <= 1.0)
        .unwrap_or(1.0)
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

/// Builds and runs the standard experiment.
pub fn run_std(app: Application, scheme: SchemeKind) -> ExperimentOutcome {
    Experiment::new(std_config(app, scheme)).run()
}

/// Worker threads for experiment fan-out: `CLOVER_THREADS` when set,
/// otherwise the machine's available parallelism.
pub fn bench_threads() -> usize {
    clover_simkit::default_threads()
}

/// Runs a batch of experiment cells in parallel (outcomes in input order,
/// byte-identical to a serial run — every cell is self-seeded).
pub fn run_cells(configs: Vec<ExperimentConfig>) -> Vec<ExperimentOutcome> {
    Experiment::run_cells(configs, bench_threads())
}

/// Runs the standard experiment for every `(app, scheme)` cell in parallel,
/// outcomes in input order.
pub fn run_grid(cells: &[(Application, SchemeKind)]) -> Vec<ExperimentOutcome> {
    run_cells(
        cells
            .iter()
            .map(|(app, scheme)| std_config(*app, scheme.clone()))
            .collect(),
    )
}

/// Resolves a scheme by name — the paper's five by their labels
/// (case-insensitive), anything else as a registry-backed custom scheme.
/// This is how binaries accept `CLOVER_SCHEMES`-style overrides.
pub fn scheme_by_name(name: &str) -> SchemeKind {
    SchemeKind::parse(name)
}

/// The schemes a binary should run: the comma-separated `CLOVER_SCHEMES`
/// environment variable when set (names resolved by [`scheme_by_name`];
/// empty segments from trailing or doubled commas are ignored), otherwise
/// `default`.
pub fn schemes_from_env(default: &[SchemeKind]) -> Vec<SchemeKind> {
    match std::env::var("CLOVER_SCHEMES") {
        Ok(list) => {
            let schemes: Vec<SchemeKind> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(scheme_by_name)
                .collect();
            if schemes.is_empty() {
                default.to_vec()
            } else {
                schemes
            }
        }
        _ => default.to_vec(),
    }
}
