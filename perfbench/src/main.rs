//! The repository benchmark.
//!
//! ```text
//! clover-perfbench --workload <paper_grid|burst_sharded|georouted>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: a fixed grid of experiment cells derived
//! from the seed, on at most two workers. `--trace 0` measures the
//! end-to-end metrics, alternating set-up and grid runs for `--seconds`;
//! `--trace 1` alternates untraced runs with runs under phase profiling and
//! per-cell spans, then times each layer's public functions on the
//! workload's inputs. Either way the outputs are checked
//! (per-epoch request conservation, router leaks, and every cell's digest
//! against a serial run through the library's own grid entry point), and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count control epochs.

mod host;
mod probes;
mod workloads;

use clover_telemetry::{Phase, PhaseTotals, TelemetrySpec};
use probes::{Input, Layers};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Built, CellOutcome, Grid, Kind, Span, Spans};

/// Workers the grid is handed to (fewer on a smaller host).
const MAX_WORKERS: usize = 2;

/// Before every timed run the grid is built repeatedly, until this much
/// time has passed (and at least [`MIN_SETUPS`] times); setup_s is the
/// median over all builds. Spreading the builds across the whole run, not
/// bunching them at its start, keeps a few slow host seconds from setting
/// the median.
const SETUP_SLICE_S: f64 = 0.1;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Control epochs checked over every run, and how many failed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Counts one run's epochs; a cell whose outcome or journal digest
    /// differs from the serial reference fails all of its epochs.
    fn check(&mut self, outs: &[CellOutcome], serial: &[CellOutcome]) {
        for (o, s) in outs.iter().zip(serial) {
            self.attempted += o.epochs;
            self.failed += if (o.digest, o.journal_digest) == (s.digest, s.journal_digest) {
                o.failed_epochs
            } else {
                println!(
                    "DIGEST MISMATCH {}: {:#018x}/{:#018x} != serial {:#018x}/{:#018x}",
                    o.label, o.digest, o.journal_digest, s.digest, s.journal_digest
                );
                o.epochs
            };
        }
    }
}

/// Builds the grid repeatedly for one set-up slice, appending each build's
/// wall seconds to `times`; returns the last build.
fn set_up(grid: &Grid, workers: usize, times: &mut Vec<f64>) -> Built {
    let start = Instant::now();
    for n in 1.. {
        let t = Instant::now();
        let built = grid.build(workers, None);
        times.push(t.elapsed().as_secs_f64());
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_SLICE_S) {
            return built;
        }
    }
    unreachable!("the set-up loop returns")
}

fn print_cells(outs: &[CellOutcome]) {
    println!(
        "{:<24} {:>18} {:>10} {:>12} {:>5} {:>9} {:>11}",
        "cell", "digest", "saving%", "carbon_g", "sla", "acc%", "sim_events"
    );
    for o in outs {
        println!(
            "{:<24} {:#018x} {:>10} {:>12.1} {:>5} {:>9.4} {:>11}",
            o.label,
            o.digest,
            o.carbon_saving_pct
                .map_or("-".to_string(), |s| format!("{s:.4}")),
            o.total_carbon_g,
            if o.sla_met { "ok" } else { "VIOL" },
            o.accuracy_pct,
            o.sim_events
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: clover-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workers = host::nproc().clamp(1, MAX_WORKERS);
    let grid = args.kind.grid(args.seed);
    println!(
        "host: nproc={} workers={} profile={} telemetry={:?}",
        host::nproc(),
        workers,
        host::build_profile(),
        grid.telemetry()
    );
    println!(
        "workload {} (seed {}): {}",
        args.kind.name(),
        args.seed,
        args.kind.describe()
    );

    let (correct, ledger, metrics) = if args.trace {
        traced(&grid, workers, args.seconds)
    } else {
        untraced(&grid, workers, args.seconds)
    };

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct && ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if metrics.iter().all(|m| m.value.is_finite()) {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a metric is not finite");
        ExitCode::FAILURE
    }
}

/// The end-to-end run: set-up slices and grid runs alternated for about
/// `seconds`, medians reported.
fn untraced(grid: &Grid, workers: usize, seconds: f64) -> (bool, Ledger, Vec<Metric>) {
    let spec = grid.telemetry();
    let (mut setups, mut walls, mut cpus, mut runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let built = set_up(grid, workers, &mut setups);
        let (outs, wall, cpu) = host::timed(|| built.run(workers, spec, None));
        walls.push(wall);
        cpus.push(cpu);
        runs.push(outs.into_iter().map(|(o, _)| o).collect::<Vec<_>>());
        // Start another run only if it is expected to end within budget.
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let serial = grid.run_serial();
    let mut ledger = Ledger::default();
    for outs in &runs {
        ledger.check(outs, &serial);
    }
    print_cells(&runs[0]);
    print_failed_share(&ledger);
    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "runs: {} (wall_s {:?}; cpu_s {:?}); set-ups: {} (min {:.6} median {:.6} max {:.6} s)",
        runs.len(),
        walls,
        cpus,
        setups.len(),
        sorted[0],
        host::median(&setups),
        sorted[sorted.len() - 1]
    );
    let metrics = vec![
        metric("wall_s", "s", host::median(&walls)),
        metric("setup_s", "s", host::median(&setups)),
        metric("peak_rss_mb", "MiB", host::peak_rss_mb()),
    ];
    for m in &metrics {
        println!("{:<14} {:>14.6} {}", m.name, m.value, m.unit);
    }
    // Printed, not in the result: on the sharded workload it switches
    // between about 1x and 1.3x wall_s with how promptly the host runs the
    // second shard thread, which no run length here averages out.
    println!("{:<14} {:>14.6} s", "cpu_s", host::median(&cpus));
    (true, ledger, metrics)
}

fn print_failed_share(ledger: &Ledger) {
    println!(
        "failed_epoch_share {} ({} of {} control epochs failed a check)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
}

/// Exclusive phase self times from the profiler's nested totals: Search
/// sits inside Plan and Carry inside Des, so each parent is reported minus
/// its child.
struct SelfTimes {
    plan: f64,
    search: f64,
    des: f64,
    carry: f64,
    scaler: f64,
}

impl SelfTimes {
    fn of(t: &PhaseTotals) -> SelfTimes {
        SelfTimes {
            plan: t.secs(Phase::Plan) - t.secs(Phase::Search),
            search: t.secs(Phase::Search),
            des: t.secs(Phase::Des) - t.secs(Phase::Carry),
            carry: t.secs(Phase::Carry),
            scaler: t.secs(Phase::Scaler),
        }
    }

    fn sum(&self) -> f64 {
        self.plan + self.search + self.des + self.carry + self.scaler
    }
}

/// The traced run: untraced and traced grid runs alternated for about
/// `seconds`, then the layer probes.
fn traced(grid: &Grid, workers: usize, seconds: f64) -> (bool, Ledger, Vec<Metric>) {
    let origin = Instant::now();
    let spans = Spans::new(origin);
    let built = grid.build(workers, Some(&spans));
    let new_spans = spans.take();

    let plain = grid.telemetry();
    let spec = TelemetrySpec {
        profiling: true,
        ..plain
    };
    let (mut plain_walls, mut traced_walls, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let (cells, phases, traced_wall, run_start, run_spans) = loop {
        let (outs, plain_wall, _) = host::timed(|| built.run(workers, plain, None));
        runs.push(outs.into_iter().map(|(o, _)| o).collect::<Vec<_>>());
        let run_start = origin.elapsed().as_secs_f64();
        let (outs, traced_wall, _) = host::timed(|| built.run(workers, spec, Some(&spans)));
        plain_walls.push(plain_wall);
        traced_walls.push(traced_wall);
        let mut phases = PhaseTotals::default();
        for (_, report) in &outs {
            phases.merge(&report.phases.expect("profiling was on"));
        }
        let cells: Vec<CellOutcome> = outs.into_iter().map(|(o, _)| o).collect();
        runs.push(cells.clone());
        if start.elapsed().as_secs_f64() + plain_wall + traced_wall > seconds {
            break (cells, phases, traced_wall, run_start, spans.take());
        }
        spans.take();
    };

    let inputs = Input::from_built(&built);
    let layers = Layers::measure(&inputs);
    let router = match &built {
        Built::Routed(_) => {
            let run_s: f64 = run_spans.iter().map(|s| s.end_s - s.start_s).sum();
            let epochs: u64 = cells.iter().map(|c| c.epochs).sum();
            (run_s, epochs, cells.iter().map(|c| c.migrated).sum::<u64>())
        }
        Built::Cells(_) => probes::router_probe(&inputs[0]),
    };
    drop(built);

    let serial = grid.run_serial();
    let mut ledger = Ledger::default();
    for outs in &runs {
        ledger.check(outs, &serial);
    }
    print_cells(&cells);
    print_failed_share(&ledger);

    // Phase self times against the worker-time bound.
    let st = SelfTimes::of(&phases);
    let bound = workers as f64 * traced_wall;
    let phases_ok = st.sum() <= bound;
    println!(
        "phase self times (s): plan {:.4}  search {:.4}  des {:.4}  carry {:.4}  scaler {:.4}  \
         sum {:.4} <= workers x wall {:.4}: {}",
        st.plan,
        st.search,
        st.des,
        st.carry,
        st.scaler,
        st.sum(),
        bound,
        if phases_ok { "ok" } else { "EXCEEDED" }
    );
    print_spans(&new_spans, &run_spans, run_start);

    let plain_wall = host::median(&plain_walls);
    let traced_wall_med = host::median(&traced_walls);
    let run_busy: f64 = run_spans.iter().map(|s| s.end_s - s.start_s).sum();
    let new_ms = new_spans.iter().map(|s| s.end_s - s.start_s).sum::<f64>() * 1e3
        / new_spans.len().max(1) as f64;
    let events: u64 = cells.iter().map(|c| c.sim_events).sum();
    let arrived: u64 = cells.iter().map(|c| c.arrived).sum();
    let dropped: u64 = cells.iter().map(|c| c.dropped).sum();
    let evals: u64 = cells.iter().map(|c| c.evals).sum();
    let journal_events: u64 = cells.iter().map(|c| c.journal_events).sum();
    // Routed cells journal their searches but not each candidate's SLA
    // verdict; their ratio falls back to the SA probe on the same inputs.
    let sla_ok_ratio = match grid {
        Grid::Cells(_) => {
            cells.iter().map(|c| c.evals_sla_ok).sum::<u64>() as f64 / evals.max(1) as f64
        }
        Grid::Routed(_) => layers.anneal_sla_ok as f64 / layers.anneal_evals.max(1) as f64,
    };
    let l = &layers;
    println!(
        "counts: sim_events {events}, arrived {arrived}, dropped {dropped}, search evals {evals}, \
         journal events {journal_events}, router epochs {} ({} migrated), \
         probe calls: window {}+{}, continuous {}+{} epochs ({}+{} events), eval {}, \
         anneal {} evals ({} accepted, {} rejected), neighbors {}, single attempts {} ({} yielded)",
        router.1,
        router.2,
        l.window_base.calls,
        l.window_co2opt.calls,
        l.continuous_k1.calls,
        l.continuous_k2.calls,
        l.continuous_k1.events,
        l.continuous_k2.events,
        l.eval.calls,
        l.anneal_evals,
        l.anneal_accepted,
        l.anneal_rejected,
        l.neighbors.calls,
        l.neighbor_attempts,
        l.neighbor_yields,
    );

    let metrics = vec![
        metric(
            "serving.window.ns_per_event.base",
            "ns",
            l.window_base.ns_per_event(),
        ),
        metric(
            "serving.window.ns_per_event.co2opt",
            "ns",
            l.window_co2opt.ns_per_event(),
        ),
        metric(
            "serving.continuous.ns_per_event.k1",
            "ns",
            l.continuous_k1.ns_per_event(),
        ),
        metric(
            "serving.continuous.ns_per_event.k2",
            "ns",
            l.continuous_k2.ns_per_event(),
        ),
        metric(
            "serving.shard.serial_share",
            "ratio",
            l.shard_carry_s / (l.continuous_k2.ns * 1e-9),
        ),
        metric(
            "serving.analytic.ns_per_estimate",
            "ns",
            l.analytic.ns_per_call(),
        ),
        metric("serving.events", "count", events as f64),
        metric(
            "serving.dropped_ratio",
            "ratio",
            dropped as f64 / arrived.max(1) as f64,
        ),
        metric(
            "core.eval.us_per_candidate",
            "us",
            l.eval.ns_per_call() * 1e-3,
        ),
        metric(
            "core.anneal.candidates_per_s",
            "1/s",
            l.anneal_evals as f64 / l.anneal_s,
        ),
        metric(
            "core.anneal.accept_ratio",
            "ratio",
            l.anneal_accepted as f64 / (l.anneal_accepted + l.anneal_rejected).max(1) as f64,
        ),
        metric(
            "core.neighbors.ns_per_sample",
            "ns",
            l.neighbors.ns_per_call(),
        ),
        metric(
            "core.neighbors.yield_ratio",
            "ratio",
            l.neighbor_yields as f64 / l.neighbor_attempts.max(1) as f64,
        ),
        metric("core.graph.ged_ns", "ns", l.graph_ged.ns_per_call()),
        metric("core.graph.build_ns", "ns", l.graph_build.ns_per_call()),
        metric(
            "core.oracle.enumerate_ms",
            "ms",
            l.oracle_enumerate.ns_per_call() * 1e-6,
        ),
        metric("core.search.evals", "count", evals as f64),
        metric("core.search.sla_ok_ratio", "ratio", sla_ok_ratio),
        metric("core.experiment.new_ms", "ms", new_ms),
        metric(
            "workload.poisson.ns_per_arrival",
            "ns",
            l.poisson.ns_per_call(),
        ),
        metric(
            "workload.flash_crowd.ns_per_arrival",
            "ns",
            l.flash_crowd.ns_per_call(),
        ),
        metric("workload.mmpp.ns_per_arrival", "ns", l.mmpp.ns_per_call()),
        metric(
            "carbon.eval_trace_ms",
            "ms",
            l.eval_trace.ns_per_call() * 1e-6,
        ),
        metric("mig.packer.cold_ns", "ns", l.packer_cold.ns_per_call()),
        metric("mig.packer.warm_ns", "ns", l.packer_warm.ns_per_call()),
        metric(
            "simkit.event_queue.ns_per_op",
            "ns",
            l.event_queue.ns_per_call(),
        ),
        metric(
            "simkit.par.utilization",
            "ratio",
            run_busy / (workers as f64 * traced_wall),
        ),
        metric(
            "router.epoch_ms",
            "ms",
            router.0 * 1e3 / router.1.max(1) as f64,
        ),
        metric("router.migrated_requests", "count", router.2 as f64),
        metric(
            "telemetry.journal.ns_per_event",
            "ns",
            l.journal.ns_per_call(),
        ),
        metric("telemetry.journal.events", "count", journal_events as f64),
        metric("control.plan.self_s", "s", st.plan),
        metric("core.search_s", "s", st.search),
        metric("serving.des.self_s", "s", st.des),
        metric("control.scaler_s", "s", st.scaler),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_wall_med - plain_wall) / plain_wall * 100.0,
        ),
    ];
    for m in &metrics {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    (phases_ok, ledger, metrics)
}

/// Prints the per-cell spans (cell, worker, start, end) relative to the
/// traced run's start; set-up spans relative to the benchmark's start.
fn print_spans(new_spans: &[Span], run_spans: &[Span], run_start: f64) {
    let mut workers: Vec<std::thread::ThreadId> = Vec::new();
    let mut worker = |id: std::thread::ThreadId| match workers.iter().position(|w| *w == id) {
        Some(i) => i,
        None => {
            workers.push(id);
            workers.len() - 1
        }
    };
    let mut sorted: Vec<&Span> = new_spans.iter().chain(run_spans).collect();
    sorted.sort_by(|a, b| {
        (a.what, a.start_s)
            .partial_cmp(&(b.what, b.start_s))
            .expect("finite")
    });
    for s in sorted {
        let origin = if s.what == "run" { run_start } else { 0.0 };
        println!(
            "span {} cell {:>2} worker {} start {:.6} end {:.6}",
            s.what,
            s.cell,
            worker(s.worker),
            s.start_s - origin,
            s.end_s - origin
        );
    }
}
