//! The benchmark's workloads: fixed grids of experiment cells derived from
//! the seed, built and run on a small worker pool, and checked.
//!
//! A cell is built (`Experiment::new` / `GlobalRouter::new`) before the
//! timed run, so set-up and run are measured apart; the run then dispatches
//! the built cells as the library's grid entry points do: single-cluster
//! cells as `Experiment::run_cells` (LPT over
//! `ExperimentConfig::cost_weight`, each cell's shard threads budgeted
//! `workers / cells`), routed cells as `GlobalRouter::run_cells_with`
//! (submission order).

use clover_carbon::Region;
use clover_core::autoscale::ScalingPolicy;
use clover_core::chaos::{ChaosConfig, FaultSpec};
use clover_core::control::Fidelity;
use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_router::{GlobalOutcome, GlobalRouter, RouterConfig};
use clover_telemetry::{Telemetry, TelemetryReport, TelemetrySpec};
use clover_workload::WorkloadKind;
use std::sync::Mutex;
use std::time::Instant;

/// Horizon of every workload's cells, simulated hours (the paper's 48 h).
const PAPER_HOURS: f64 = 48.0;

/// Horizon of the sharded burst cell, simulated hours.
const BURST_HOURS: f64 = 15.0;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    BurstSharded,
    Georouted,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::BurstSharded, Kind::Georouted];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::BurstSharded => "burst_sharded",
            Kind::Georouted => "georouted",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One-line description of the grid, printed with every result.
    pub fn describe(self) -> &'static str {
        match self {
            Kind::PaperGrid => {
                "3 apps x 5 schemes (ORACLE included), 10 GPUs, CISO March, Poisson, \
                 240 s representative windows, hourly epochs, 48 h: 15 cells"
            }
            Kind::BurstSharded => {
                "1 CLOVER cell, ImageClassification, flash_crowd, FullEpoch 120 s epochs, \
                 reactive scaling, resilience(24 h MTBF) chaos, 4 GPUs, des_shards(2), 15 h"
            }
            Kind::Georouted => {
                "3 regions x 4 GPUs, LanguageModeling, 600 s epochs, reactive scaling, \
                 utilization 0.6, headroom 2.0, 48 h, journal on: uniform/Base, \
                 carbon-greedy/Base, forecast-aware/Clover, carbon-greedy/Base + 6 h outage \
                 of region 0"
            }
        }
    }

    /// The workload's cells for `seed`.
    pub fn grid(self, seed: u64) -> Grid {
        match self {
            Kind::PaperGrid => Grid::Cells(
                Application::ALL
                    .into_iter()
                    .flat_map(|app| {
                        SchemeKind::ALL.into_iter().map(move |scheme| {
                            ExperimentConfig::builder(app)
                                .scheme(scheme)
                                .region(Region::CisoMarch)
                                .workload(WorkloadKind::Poisson)
                                .n_gpus(10)
                                .horizon_hours(PAPER_HOURS)
                                .seed(seed)
                                .build()
                        })
                    })
                    .collect(),
            ),
            Kind::BurstSharded => Grid::Cells(vec![ExperimentConfig::builder(
                Application::ImageClassification,
            )
            .scheme(SchemeKind::Clover)
            .workload(WorkloadKind::flash_crowd())
            .fidelity(Fidelity::FullEpoch)
            .control_epoch_s(120.0)
            .scaling(ScalingPolicy::reactive())
            .chaos(ChaosConfig::resilience(24.0))
            .n_gpus(4)
            .des_shards(2)
            .horizon_hours(BURST_HOURS)
            .seed(seed)
            .build()]),
            Kind::Georouted => {
                let outage = ChaosConfig::off().with(FaultSpec::RegionOutage {
                    region: 0,
                    start_h: 20.0,
                    duration_h: 6.0,
                });
                let cell = |policy: &str, scheme: SchemeKind, chaos: ChaosConfig| {
                    RouterConfig::builder(Application::LanguageModeling)
                        .policy(policy)
                        .scheme(scheme)
                        .chaos(chaos)
                        .scaling(ScalingPolicy::reactive())
                        .control_epoch_s(600.0)
                        .n_gpus_per_region(4)
                        .min_gpus(1)
                        .horizon_hours(PAPER_HOURS)
                        .utilization(0.6)
                        .sla_headroom(2.0)
                        .seed(seed)
                        .build()
                };
                Grid::Routed(vec![
                    cell("uniform", SchemeKind::Base, ChaosConfig::off()),
                    cell("carbon-greedy", SchemeKind::Base, ChaosConfig::off()),
                    cell("forecast-aware", SchemeKind::Clover, ChaosConfig::off()),
                    cell("carbon-greedy", SchemeKind::Base, outage),
                ])
            }
        }
    }
}

/// A workload's cell configurations.
#[derive(Clone)]
pub enum Grid {
    Cells(Vec<ExperimentConfig>),
    Routed(Vec<RouterConfig>),
}

/// A workload's cells, built and ready to run (any number of times: a run
/// borrows the cell and is a pure function of it).
pub enum Built {
    Cells(Vec<Experiment>),
    Routed(Vec<GlobalRouter>),
}

/// One wall-clock span of a cell on a worker thread, seconds from the
/// benchmark's clock origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub cell: usize,
    pub worker: std::thread::ThreadId,
    pub what: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// Collects [`Span`]s from the worker threads when tracing is on.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn time<R>(&self, cell: usize, what: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned").push(Span {
            cell,
            worker: std::thread::current().id(),
            what,
            start_s: start,
            end_s: end,
        });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Runs `f` inside a span when spans are collected, plainly otherwise.
fn spanned<R>(spans: Option<&Spans>, cell: usize, what: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => s.time(cell, what, f),
        None => f(),
    }
}

/// The checked results of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    pub label: String,
    pub digest: u64,
    /// Digest of the decision journal (0 when the journal is off).
    pub journal_digest: u64,
    /// Control epochs the cell ran.
    pub epochs: u64,
    /// Epochs that failed a correctness check.
    pub failed_epochs: u64,
    pub sim_events: u64,
    /// Carbon saving vs the synchronized BASE run, percent (single-cluster
    /// cells only).
    pub carbon_saving_pct: Option<f64>,
    pub total_carbon_g: f64,
    pub sla_met: bool,
    pub accuracy_pct: f64,
    /// Window counts of arrived and dropped requests.
    pub arrived: u64,
    pub dropped: u64,
    /// Configurations evaluated by the scheduler, and those within the SLA
    /// (single-cluster cells only).
    pub evals: u64,
    pub evals_sla_ok: u64,
    pub migrated: u64,
    pub journal_events: u64,
}

impl CellOutcome {
    fn from_experiment(out: &ExperimentOutcome, report: &TelemetryReport) -> Self {
        // Per-epoch request conservation, cumulative over the run:
        // Σ arrived == Σ served + Σ dropped + backlog at every epoch.
        let (mut arrived, mut served, mut dropped, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for p in &out.timeline {
            arrived += p.arrived;
            served += p.served;
            dropped += p.dropped;
            if arrived != served + dropped + p.backlog {
                failed += 1;
            }
        }
        CellOutcome {
            label: format!("{}/{}", out.app, out.scheme),
            digest: out.digest(),
            journal_digest: report.journal_digest(),
            epochs: out.timeline.len() as u64,
            failed_epochs: failed,
            sim_events: out.sim_events,
            carbon_saving_pct: Some(out.carbon_saving_pct),
            total_carbon_g: out.total_carbon_g,
            sla_met: out.sla_met,
            accuracy_pct: out.accuracy_pct,
            arrived,
            dropped,
            evals: out.evals_total() as u64,
            evals_sla_ok: out.evals_sla_ok() as u64,
            migrated: 0,
            journal_events: report.journal.as_ref().map_or(0, |j| j.len()),
        }
    }

    fn from_routed(out: &GlobalOutcome, report: &TelemetryReport) -> Self {
        let epochs = out.timeline.len() as u64;
        let leak_free = out.conservation_leak == 0 && out.boundary_leak == 0;
        let journal = report.journal.as_ref();
        CellOutcome {
            label: format!("{}/{}", out.policy, out.scheme),
            digest: out.digest(),
            journal_digest: report.journal_digest(),
            epochs,
            failed_epochs: if leak_free { 0 } else { epochs },
            sim_events: out.sim_events,
            carbon_saving_pct: None,
            total_carbon_g: out.total_carbon_g,
            sla_met: out.sla_met,
            accuracy_pct: out.accuracy_pct,
            arrived: out.arrived,
            dropped: out.dropped,
            evals: journal.map_or(0, |j| {
                journal_sum(j.as_str(), "search", &["accepted", "rejected"])
            }),
            evals_sla_ok: 0,
            migrated: out.migrated_requests,
            journal_events: journal.map_or(0, |j| j.len()),
        }
    }
}

/// Sums the named integer fields over every journal line of `event`.
fn journal_sum(journal: &str, event: &str, fields: &[&str]) -> u64 {
    let tag = format!("\"event\":\"{event}\"");
    journal
        .lines()
        .filter(|l| l.contains(&tag))
        .flat_map(|l| {
            fields.iter().filter_map(move |f| {
                let key = format!("\"{f}\":");
                let rest = &l[l.find(&key)? + key.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse::<u64>().ok()
            })
        })
        .sum()
}

impl Grid {
    /// The telemetry the workload ships with: the georouted grid keeps its
    /// decision journal on, as the figure that runs it does.
    pub fn telemetry(&self) -> TelemetrySpec {
        match self {
            Grid::Cells(_) => TelemetrySpec::DISABLED,
            Grid::Routed(_) => TelemetrySpec::JOURNAL,
        }
    }

    /// Builds every cell on `workers` threads (LPT order).
    pub fn build(&self, workers: usize, spans: Option<&Spans>) -> Built {
        match self {
            Grid::Cells(configs) => {
                let budget = (workers / configs.len()).max(1);
                let items: Vec<(usize, ExperimentConfig)> =
                    configs.iter().cloned().enumerate().collect();
                Built::Cells(clover_simkit::par_map_lpt(
                    items,
                    workers,
                    |(_, c)| c.cost_weight(),
                    |(i, c)| {
                        spanned(spans, i, "new", || {
                            let mut e = Experiment::new(c);
                            e.set_shard_threads(Some(budget));
                            e
                        })
                    },
                ))
            }
            Grid::Routed(configs) => {
                let items: Vec<(usize, RouterConfig)> =
                    configs.iter().cloned().enumerate().collect();
                Built::Routed(clover_simkit::par_map(items, workers, |(i, c)| {
                    spanned(spans, i, "new", || GlobalRouter::new(c))
                }))
            }
        }
    }

    /// The serial reference: every cell through the library's own grid
    /// entry point on one worker.
    pub fn run_serial(&self) -> Vec<CellOutcome> {
        match self.clone() {
            Grid::Cells(configs) => Experiment::run_cells(configs, 1)
                .iter()
                .map(|o| CellOutcome::from_experiment(o, &TelemetryReport::default()))
                .collect(),
            Grid::Routed(configs) => GlobalRouter::run_cells_with(configs, 1, self.telemetry())
                .iter()
                .map(|(o, r)| CellOutcome::from_routed(o, r))
                .collect(),
        }
    }
}

impl Built {
    /// Runs every cell on `workers` threads (LPT order), outcomes in cell
    /// order, each with its telemetry report.
    pub fn run(
        &self,
        workers: usize,
        spec: TelemetrySpec,
        spans: Option<&Spans>,
    ) -> Vec<(CellOutcome, TelemetryReport)> {
        match self {
            Built::Cells(cells) => {
                let items: Vec<(usize, &Experiment)> = cells.iter().enumerate().collect();
                clover_simkit::par_map_lpt(
                    items,
                    workers,
                    |(_, e)| e.config().cost_weight(),
                    |(i, e)| {
                        spanned(spans, i, "run", || {
                            let mut telemetry = Telemetry::new(spec);
                            let out = e.run_with(&mut telemetry);
                            let report = telemetry.take_report();
                            (CellOutcome::from_experiment(&out, &report), report)
                        })
                    },
                )
            }
            Built::Routed(cells) => {
                let items: Vec<(usize, &GlobalRouter)> = cells.iter().enumerate().collect();
                clover_simkit::par_map(items, workers, |(i, r)| {
                    spanned(spans, i, "run", || {
                        let mut telemetry = Telemetry::new(spec);
                        let out = r.run_with(&mut telemetry);
                        let report = telemetry.take_report();
                        (CellOutcome::from_routed(&out, &report), report)
                    })
                })
            }
        }
    }
}
