//! The figure suite: every table and figure of the evaluation as a
//! [`Spec`] — the cells it needs and a render step over their runs —
//! listed by name in [`FIGURES`].
//!
//! [`run`] collects the selected figures' cells, deduplicates them by
//! config equality (floats compare by `==`), runs the set once through
//! `Experiment::run_cells_with` and `GlobalRouter::run_cells_with` with the
//! decision journal on (a strict overlay: outcomes are unchanged), then
//! renders each figure in order. Figures thus share cells — Figs. 9–13 and
//! §5.2.1 all read the same 12 standard cells — and the BASE references and
//! calibration windows of equal cells. Figures without a grid have no cells
//! and compute in their render step.
//!
//! A figure may also name a replay grid, which its render step checks
//! against its parallel runs. Once the union has run, every selected replay
//! grid runs at once, each serially on a worker of its own; the render step
//! then reads its replay.

use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_router::{GlobalOutcome, GlobalRouter, RouterConfig};
use clover_telemetry::{TelemetryReport, TelemetrySpec};

/// Fails the enclosing render with the formatted message unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

mod chaos;
mod fleet;
mod motivation;
mod paper;

/// A render step's verdict: `Err` names the check that failed.
pub type Verdict = Result<(), String>;

/// One figure: the cells it needs and how it renders their runs.
pub struct Spec {
    /// The single-cluster cells it renders, in the order it reads them.
    pub cells: Vec<ExperimentConfig>,
    /// The multi-region cells it renders, in the order it reads them.
    pub routed: Vec<RouterConfig>,
    /// The cells it replays serially to check its runs against.
    replay: Grid,
    render: Box<dyn FnOnce(&Runs) -> Verdict>,
}

impl Spec {
    /// A figure without cells: it computes as it prints.
    fn plain(render: fn()) -> Spec {
        Spec::grid(Vec::new(), move |_| render())
    }

    /// A figure over `cells` that checks nothing.
    fn grid(cells: Vec<ExperimentConfig>, render: impl FnOnce(&Runs) + 'static) -> Spec {
        Spec::checked(cells, Vec::new(), move |runs| {
            render(runs);
            Ok(())
        })
    }

    /// A figure whose render can fail a check.
    fn checked(
        cells: Vec<ExperimentConfig>,
        routed: Vec<RouterConfig>,
        render: impl FnOnce(&Runs) -> Verdict + 'static,
    ) -> Spec {
        let render = Box::new(render);
        Spec {
            cells,
            routed,
            replay: Grid::default(),
            render,
        }
    }

    /// This figure, replaying `replay` serially for its render to check.
    fn replaying(self, replay: Grid) -> Spec {
        Spec { replay, ..self }
    }
}

/// Single-cluster and multi-region cells.
#[derive(Default)]
struct Grid {
    cells: Vec<ExperimentConfig>,
    routed: Vec<RouterConfig>,
}

impl Grid {
    /// Runs every cell on `threads` workers with the decision journal on.
    fn run(self, threads: usize) -> GridRuns {
        GridRuns {
            experiments: Experiment::run_cells_with(self.cells, threads, TelemetrySpec::JOURNAL),
            routed: GlobalRouter::run_cells_with(self.routed, threads, TelemetrySpec::JOURNAL),
        }
    }
}

/// A grid's runs, in its cells' order.
pub struct GridRuns {
    /// One per single-cluster cell.
    pub experiments: Vec<(ExperimentOutcome, TelemetryReport)>,
    /// One per multi-region cell.
    pub routed: Vec<(GlobalOutcome, TelemetryReport)>,
}

/// The runs of one figure's cells, in the order its [`Spec`] lists them.
pub struct Runs<'a> {
    /// One per entry of [`Spec::cells`].
    pub experiments: Vec<&'a (ExperimentOutcome, TelemetryReport)>,
    /// One per entry of [`Spec::routed`].
    pub routed: Vec<&'a (GlobalOutcome, TelemetryReport)>,
    /// The serial runs of the figure's replay grid.
    pub replay: &'a GridRuns,
}

impl<'a> Runs<'a> {
    /// The single-cluster outcomes, in cell order.
    pub fn outcomes(&self) -> Vec<&'a ExperimentOutcome> {
        self.experiments.iter().map(|(out, _)| out).collect()
    }
}

/// Builds a figure's [`Spec`].
pub type Build = fn() -> Spec;

/// Every figure by name, in the order `figures` renders them by default.
pub const FIGURES: [(&str, Build); 21] = [
    ("fig01", || Spec::plain(motivation::fig01)),
    ("fig02", || Spec::plain(motivation::fig02)),
    ("fig03", || Spec::plain(motivation::fig03)),
    ("fig04", || Spec::plain(motivation::fig04)),
    ("fig06", || Spec::plain(motivation::fig06)),
    ("fig08", || Spec::plain(motivation::fig08)),
    ("table1", || Spec::plain(motivation::table1)),
    ("fig09", paper::fig09),
    ("est01", paper::est01),
    ("fig10", paper::fig10),
    ("fig11", paper::fig11),
    ("fig12", paper::fig12),
    ("fig13", paper::fig13),
    ("fig14", paper::fig14),
    ("fig15", paper::fig15),
    ("fig16", paper::fig16),
    ("ablation_ged", || Spec::plain(motivation::ablation_ged)),
    ("fig_autoscale", fleet::autoscale),
    ("fig_flashcrowd", fleet::flashcrowd),
    ("fig_resilience", chaos::resilience),
    ("fig_georouting", chaos::georouting),
];

/// The specs of the figures `names` select, in the order given; every
/// figure when `names` is empty.
///
/// # Errors
/// On a name no figure has, with a message listing the valid names.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Spec)>, String> {
    if names.is_empty() {
        return Ok(FIGURES.map(|(name, spec)| (name, spec())).into());
    }
    let valid = || FIGURES.map(|(name, _)| name).join(", ");
    names
        .iter()
        .map(|want| match FIGURES.iter().find(|(name, _)| name == want) {
            Some(&(name, spec)) => Ok((name, spec())),
            None => Err(format!("unknown figure `{want}`; valid names: {}", valid())),
        })
        .collect()
}

/// Appends each of `cells` to `set` unless an equal one is there already;
/// returns each cell's index in `set`.
fn dedup<T: PartialEq>(set: &mut Vec<T>, cells: Vec<T>) -> Vec<usize> {
    cells
        .into_iter()
        .map(|cell| {
            set.iter().position(|c| *c == cell).unwrap_or_else(|| {
                set.push(cell);
                set.len() - 1
            })
        })
        .collect()
}

/// Runs every grid serially, all at once on a worker apiece; runs come
/// back in `grids` order.
fn replay_all(grids: Vec<Grid>) -> Vec<GridRuns> {
    let size = |g: &Grid| g.cells.len() + g.routed.len();
    let busy = grids.iter().filter(|g| size(g) > 0).count();
    // Largest first, so each non-empty grid takes a worker of its own.
    clover_simkit::par_map_lpt(grids, busy, |g| size(g) as f64, |g| g.run(1))
}

/// Runs the union of `figures`' cells once on `threads` workers, then their
/// replay grids, then renders each figure in order. Returns one line per
/// failed check, each naming its figure.
pub fn run(figures: Vec<(&str, Spec)>, threads: usize) -> Vec<String> {
    let (mut union, mut replays) = (Grid::default(), Vec::new());
    let picked: Vec<_> = figures
        .into_iter()
        .map(|(name, spec)| {
            let c = dedup(&mut union.cells, spec.cells);
            let r = dedup(&mut union.routed, spec.routed);
            replays.push(spec.replay);
            (name, c, r, spec.render)
        })
        .collect();
    let union_runs = union.run(threads);
    // Only now: the union's cells are gone, so no replay cell can share a
    // BASE reference or calibration window with the run it checks.
    let replayed = replay_all(replays);
    picked
        .into_iter()
        .zip(&replayed)
        .filter_map(|((name, c, r, render), replay)| {
            let runs = Runs {
                experiments: c.iter().map(|&i| &union_runs.experiments[i]).collect(),
                routed: r.iter().map(|&i| &union_runs.routed[i]).collect(),
                replay,
            };
            render(&runs).err().map(|check| format!("{name}: {check}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn union(names: &[&str]) -> Vec<ExperimentConfig> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let mut set = Vec::new();
        for (_, spec) in select(&names).expect("known names") {
            dedup(&mut set, spec.cells);
        }
        set
    }

    #[test]
    fn standard_cell_figures_share_twelve_cells() {
        let fig10 = union(&["fig10"]);
        assert_eq!(fig10.len(), 12);
        assert_eq!(union(&["fig10", "fig11"]), fig10);
        let six = union(&["fig09", "fig10", "fig11", "fig12", "fig13", "est01"]);
        assert_eq!(six.len(), 12);
        assert!(six.iter().all(|c| fig10.contains(c)));
    }

    #[test]
    fn configs_differing_in_one_float_stay_distinct() {
        let a = crate::std_config(
            clover_models::zoo::Application::ImageClassification,
            clover_core::schedulers::SchemeKind::Clover,
        );
        let mut b = a.clone();
        b.lambda = 0.5000001;
        let mut set = Vec::new();
        assert_eq!(dedup(&mut set, vec![a.clone(), b, a]), vec![0, 1, 0]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_valid_ones() {
        let err = select(&["fig09".to_string(), "fig99".to_string()])
            .err()
            .expect("fig99 is not a figure");
        assert!(err.contains("fig99"), "{err}");
        for (name, _) in FIGURES {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }

    #[test]
    fn names_select_in_the_order_given_and_none_selects_all() {
        let names = ["fig10", "fig09"].map(String::from);
        let picked: Vec<&str> = select(&names).unwrap().iter().map(|f| f.0).collect();
        assert_eq!(picked, names);
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
    }
}
