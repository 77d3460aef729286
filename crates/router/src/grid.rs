//! One cell type for every grid, and its one dispatcher.

use crate::global::{GlobalOutcome, GlobalRouter, RouterConfig};
use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_telemetry::{Telemetry, TelemetryReport, TelemetrySpec};

/// One cell of a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A single-cluster experiment.
    Cluster(ExperimentConfig),
    /// A multi-region run behind the global router.
    Routed(RouterConfig),
}

impl Cell {
    /// The cell's dispatch weight: [`ExperimentConfig::cost_weight`] of
    /// the cell, or of a routed cell's region cell times its region count.
    pub fn cost_weight(&self) -> f64 {
        match self {
            Cell::Cluster(cfg) => cfg.cost_weight(),
            Cell::Routed(cfg) => cfg.regions.len() as f64 * cfg.cell_config().cost_weight(),
        }
    }
}

/// What one [`Cell`] measured.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A [`Cell::Cluster`]'s outcome.
    Cluster(ExperimentOutcome),
    /// A [`Cell::Routed`]'s outcome.
    Routed(GlobalOutcome),
}

impl Outcome {
    /// [`ExperimentOutcome::digest`] or [`GlobalOutcome::digest`].
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Cluster(out) => out.digest(),
            Outcome::Routed(out) => out.digest(),
        }
    }

    /// The single-cluster outcome; `None` for a routed cell's.
    pub fn cluster(&self) -> Option<&ExperimentOutcome> {
        match self {
            Outcome::Cluster(out) => Some(out),
            Outcome::Routed(_) => None,
        }
    }

    /// The multi-region outcome; `None` for a single-cluster cell's.
    pub fn routed(&self) -> Option<&GlobalOutcome> {
        match self {
            Outcome::Routed(out) => Some(out),
            Outcome::Cluster(_) => None,
        }
    }
}

/// A cell, built.
enum Built {
    Cluster(Experiment),
    Routed(GlobalRouter),
}

/// Runs every cell on `threads` workers, each with its own telemetry sink
/// from `spec`; outcomes and reports come back in input order.
///
/// Every cell derives all of its randomness from its own seed, so the
/// parallel grid is byte-identical to the serial run, journals included
/// (pinned by `tests/par_determinism.rs`). These `threads` are the run's
/// only workers: a cell, ORACLE's offline profiling included, runs on the
/// worker that claimed it. Every cell is built first, so cells that share a
/// BASE reference or calibration window are alive together and compute it
/// once. The cells then run in one pool, heaviest [`Cell::cost_weight`]
/// first ([`clover_simkit::par_map_lpt`]).
pub fn run_cells_with(
    cells: Vec<Cell>,
    threads: usize,
    spec: TelemetrySpec,
) -> Vec<(Outcome, TelemetryReport)> {
    let weights: Vec<f64> = cells.iter().map(Cell::cost_weight).collect();
    let built = clover_simkit::par_map(cells, threads, |cell| match cell {
        Cell::Cluster(cfg) => Built::Cluster(Experiment::new(cfg)),
        Cell::Routed(cfg) => Built::Routed(GlobalRouter::new(cfg)),
    });
    clover_simkit::par_map_lpt(
        built.iter().zip(weights).collect(),
        threads,
        |&(_, weight)| weight,
        |(cell, _)| {
            let mut telemetry = Telemetry::new(spec);
            let out = match cell {
                Built::Cluster(e) => Outcome::Cluster(e.run_with(&mut telemetry)),
                Built::Routed(r) => Outcome::Routed(r.run_with(&mut telemetry)),
            };
            (out, telemetry.take_report())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_carbon::Region;
    use clover_models::zoo::Application;

    #[test]
    fn a_routed_cell_weighs_its_region_cell_once_per_region() {
        let cluster = ExperimentConfig::builder(Application::ImageClassification)
            .horizon_hours(6.0)
            .build();
        assert_eq!(
            Cell::Cluster(cluster.clone()).cost_weight(),
            cluster.cost_weight()
        );
        for regions in [vec![Region::CisoMarch], Region::ALL.to_vec()] {
            let routed = RouterConfig::builder(Application::LanguageModeling)
                .regions(regions.clone())
                .control_epoch_s(600.0)
                .horizon_hours(4.0)
                .build();
            let per_region = routed.cell_config().cost_weight();
            assert_eq!(
                Cell::Routed(routed).cost_weight(),
                regions.len() as f64 * per_region
            );
        }
    }
}
