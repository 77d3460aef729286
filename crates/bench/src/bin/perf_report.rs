//! Engine performance report: wall time per experiment grid (serial vs
//! parallel, median of N runs), DES events/sec, per-window allocation
//! counts, and a per-phase wall-time breakdown (scheduler plan / SA search
//! / DES / scaler / carry), emitted as machine-readable
//! `BENCH_engine.json` so the performance trajectory of the engine is
//! tracked across PRs (see `docs/perf-ledger.md` for how claims built on
//! these numbers are accepted or rejected).
//!
//! The report triples as the correctness gate CI keys off; the process
//! exits non-zero when any of these fail:
//!
//! - **determinism** — for every grid, the parallel fan-out's outcome
//!   digests (telemetry *enabled*, profiling) must equal the serial
//!   reference's (telemetry *disabled*), which simultaneously pins
//!   serial-vs-parallel byte-identity and that profiling never perturbs
//!   results;
//! - **telemetry overhead** — the fully-enabled serial run of the largest
//!   grid must stay within 1% (or 50 ms absolute, whichever is larger —
//!   the noise guard for very fast grids) of the disabled baseline;
//! - **journal determinism** — the continuous full-epoch grid's decision
//!   journals must be byte-identical between serial and parallel runs;
//! - **phase accounting** — each profiled run's exclusive phase wall time
//!   (the top-level phases `plan + des + scaler`; `search` nests in `plan`
//!   and `carry` in `des`) must stay within `threads × wall` (phase clocks
//!   tick concurrently, so the sum can exceed wall — but never the thread
//!   count times it);
//! - **parallel speedup** — the continuous full-epoch grid (two cells,
//!   intra-epoch DES sharding) must reach `CLOVER_PERF_MIN_SPEEDUP`
//!   (default 2.5×) over serial — enforced only when the host actually has
//!   the cores to deliver it (`available_parallelism ≥ threads ≥ 4`) and
//!   `CLOVER_PERF_ALLOW_SLOW` is unset; the gate's verdict and whether it
//!   was enforced are always recorded in the artifact.
//!
//! Environment knobs:
//! - `CLOVER_PERF_HOURS`        — simulated horizon per cell (default 6).
//! - `CLOVER_PERF_THREADS`      — parallel worker count (default 4).
//! - `CLOVER_BENCH_RUNS`        — timed repetitions per grid (default 3);
//!   medians are reported, min/max bound the spread.
//! - `CLOVER_PERF_MIN_SPEEDUP`  — speedup floor for the continuous grid
//!   (default 2.5).
//! - `CLOVER_PERF_ALLOW_SLOW`   — set (any value) to record the speedup
//!   without failing the process: the escape hatch for constrained runners.
//! - `CLOVER_LOG`               — `quiet` silences the tables (the JSON
//!   artifact is still written), `info` (default) prints them.
//! - `CLOVER_BENCH_SCALE`      — ignored here; the grids are already smoke-sized.

use clover_bench::{header, log_line, LogLevel, BENCH_SCHEMA};
use clover_core::control::Fidelity;
use clover_core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_models::PerfModel;
use clover_serving::{Deployment, ServingSim};
use clover_simkit::SimDuration;
use clover_telemetry::{Phase, PhaseTotals, TelemetrySpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator, so the report can state
/// how many heap allocations one serving window costs (the DES hot-path
/// number the scratch reuse is meant to keep flat).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Median / min / max over a set of timed runs.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut walls: Vec<f64>) -> Spread {
        assert!(!walls.is_empty(), "spread of zero runs");
        walls.sort_by(f64::total_cmp);
        let n = walls.len();
        let median = if n % 2 == 1 {
            walls[n / 2]
        } else {
            0.5 * (walls[n / 2 - 1] + walls[n / 2])
        };
        Spread {
            median,
            min: walls[0],
            max: walls[n - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}}}",
            self.median, self.min, self.max
        )
    }
}

/// A named experiment grid: one parallel fan-out whose serial run is the
/// determinism reference.
struct Grid {
    name: &'static str,
    configs: Vec<ExperimentConfig>,
    /// Intra-epoch DES shards per cell (1 = classic unsharded engine).
    shards: usize,
}

/// Intra-epoch DES shards on the continuous full-epoch grid: with only two
/// cells the grid fan-out alone can use at most two of the four CI
/// threads, so each cell is split into four deterministic shards and the
/// shard-thread budget (`threads / cells`) keeps the total worker count at
/// the grid's thread budget.
const CONTINUOUS_SHARDS: usize = 4;

fn smoke_config(app: Application, scheme: SchemeKind, seed: u64, hours: f64) -> ExperimentConfig {
    ExperimentConfig::builder(app)
        .scheme(scheme)
        .n_gpus(4)
        .horizon_hours(hours)
        .sim_window_s(20.0)
        .seed(seed)
        .build()
}

fn table1_configs(hours: f64) -> Vec<ExperimentConfig> {
    Application::ALL
        .into_iter()
        .flat_map(|app| {
            [
                SchemeKind::Base,
                SchemeKind::Co2Opt,
                SchemeKind::Blover,
                SchemeKind::Clover,
            ]
            .into_iter()
            .map(move |s| smoke_config(app, s, 2023, hours))
        })
        .collect()
}

fn continuous_full_epoch_configs(hours: f64) -> Vec<ExperimentConfig> {
    [SchemeKind::Base, SchemeKind::Clover]
        .into_iter()
        .map(|scheme| {
            ExperimentConfig::builder(Application::ImageClassification)
                .scheme(scheme)
                .workload(clover_workload::WorkloadKind::flash_crowd())
                .fidelity(Fidelity::FullEpoch)
                .control_epoch_s(120.0)
                .n_gpus(4)
                .horizon_hours(hours.min(2.0))
                .seed(2023)
                .des_shards(CONTINUOUS_SHARDS)
                .build()
        })
        .collect()
}

fn grids(hours: f64) -> Vec<Grid> {
    let mut out = Vec::new();
    // The Table-1 application matrix crossed with every online scheme
    // (ORACLE's exhaustive offline profile is deliberately excluded from
    // the smoke grid).
    out.push(Grid {
        name: "table1_app_scheme_matrix",
        configs: table1_configs(hours),
        shards: 1,
    });
    // Fig. 9's shape: Clover across the applications.
    out.push(Grid {
        name: "fig09_clover_per_app",
        configs: Application::ALL
            .into_iter()
            .map(|app| smoke_config(app, SchemeKind::Clover, 2023, hours))
            .collect(),
        shards: 1,
    });
    // The multi-seed entry point: one cell replicated across seeds.
    out.push(Grid {
        name: "seed_sweep_clover",
        configs: (0..6)
            .map(|seed| {
                smoke_config(
                    Application::ImageClassification,
                    SchemeKind::Clover,
                    seed,
                    hours,
                )
            })
            .collect(),
        shards: 1,
    });
    // The burst path: FullEpoch fidelity under MMPP with 20-minute control
    // epochs — every arrival of every epoch is simulated (~100× the events
    // of the representative-window cells), so this grid's events/sec is
    // the number CI watches to keep full-epoch simulation affordable. The
    // horizon is capped: the point is throughput, not coverage.
    out.push(Grid {
        name: "full_epoch_mmpp",
        configs: [SchemeKind::Base, SchemeKind::Clover]
            .into_iter()
            .map(|scheme| {
                ExperimentConfig::builder(Application::ImageClassification)
                    .scheme(scheme)
                    .workload(clover_workload::WorkloadKind::mmpp())
                    .fidelity(Fidelity::FullEpoch)
                    .control_epoch_s(1200.0)
                    .n_gpus(4)
                    .horizon_hours(hours.min(2.0))
                    .seed(2023)
                    .build()
            })
            .collect(),
        shards: 1,
    });
    // The continuous path: 2-minute epochs, full-epoch fidelity, serving
    // state carried across every boundary (queue + in-flight snapshots,
    // ~30 seams per simulated hour). Same event volume as full_epoch_mmpp
    // per hour, plus the carry save/restore overhead — this grid's
    // events/sec is what CI watches to keep continuity affordable, and its
    // serial-vs-parallel digest comparison is the determinism gate for
    // both the carry-over machinery and intra-epoch sharding (the cells
    // run with `CONTINUOUS_SHARDS` shards in both arms; only the thread
    // count differs).
    out.push(Grid {
        name: "continuous_full_epoch",
        configs: continuous_full_epoch_configs(hours),
        shards: CONTINUOUS_SHARDS,
    });
    out
}

struct GridResult {
    name: &'static str,
    cells: usize,
    shards: usize,
    serial: Spread,
    parallel: Spread,
    speedup: f64,
    sim_events: u64,
    serial_events_per_sec: f64,
    /// Per-phase wall time summed over the cells of a profiled parallel
    /// run, averaged across the `runs` repetitions (the raw accumulator
    /// over all repeats used to be reported verbatim, which inflated every
    /// phase by a factor of `runs` relative to the per-run wall medians
    /// sitting next to it in the artifact).
    phases: PhaseTotals,
    phase_runs: usize,
    /// Every repeat's exclusive phase time stayed within `threads × wall`
    /// (see [`phase_bound_holds`]).
    phase_bound_ok: bool,
    deterministic: bool,
}

/// Times `runs` serial (telemetry disabled — the unchanged baseline) and
/// `runs` parallel (phase profiling enabled) executions of the grid.
/// Every parallel run's outcome digests must equal the serial reference's:
/// one comparison pins both parallel determinism and that profiling is a
/// strict overlay.
fn run_grid(grid: Grid, threads: usize, runs: usize) -> GridResult {
    let cells = grid.configs.len();

    let mut serial_walls = Vec::with_capacity(runs);
    let mut reference: Vec<ExperimentOutcome> = Vec::new();
    for i in 0..runs {
        let t0 = Instant::now();
        let outcomes = Experiment::run_cells(grid.configs.clone(), 1);
        serial_walls.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            reference = outcomes;
        }
    }
    let digests: Vec<u64> = reference.iter().map(ExperimentOutcome::digest).collect();

    let mut parallel_walls = Vec::with_capacity(runs);
    let mut phases = PhaseTotals::default();
    let mut phase_bound_ok = true;
    let mut deterministic = true;
    for _ in 0..runs {
        let t0 = Instant::now();
        let pairs =
            Experiment::run_cells_with(grid.configs.clone(), threads, TelemetrySpec::PROFILING);
        let wall = t0.elapsed().as_secs_f64();
        parallel_walls.push(wall);
        let par_digests: Vec<u64> = pairs.iter().map(|(o, _)| o.digest()).collect();
        deterministic &= par_digests == digests;
        // Accumulate every repeat (the report divides by `runs`), and
        // sanity-check each repeat on its own: summed phase seconds can
        // exceed this run's wall (threads tick concurrently) but never by
        // more than the worker count — anything past that means the
        // accumulator is mixing runs again.
        let mut run_phases = PhaseTotals::default();
        for (_, report) in &pairs {
            if let Some(p) = report.phases.as_ref() {
                run_phases.merge(p);
            }
        }
        phase_bound_ok &= phase_bound_holds(&run_phases, threads, wall);
        phases.merge(&run_phases);
    }

    let serial = Spread::of(serial_walls);
    let parallel = Spread::of(parallel_walls);
    let sim_events: u64 = reference.iter().map(|o| o.sim_events).sum();
    GridResult {
        name: grid.name,
        cells,
        shards: grid.shards,
        serial,
        parallel,
        speedup: serial.median / parallel.median.max(1e-9),
        sim_events,
        serial_events_per_sec: sim_events as f64 / serial.median.max(1e-9),
        phases,
        phase_runs: runs,
        phase_bound_ok,
        deterministic,
    }
}

/// The phase gate for one profiled run: the exclusive phase time — the
/// top-level phases only, since `Search` nests in `Plan` and `Carry` in
/// `Des` — may exceed `wall` (phase clocks tick on worker threads
/// concurrently) but never `threads × wall`.
fn phase_bound_holds(phases: &PhaseTotals, threads: usize, wall: f64) -> bool {
    let exclusive: f64 = Phase::TOP_LEVEL.into_iter().map(|p| phases.secs(p)).sum();
    exclusive <= threads as f64 * wall * 1.05 + 0.05
}

impl GridResult {
    /// Per-run phase seconds: the accumulator over all repeats, normalized.
    fn phase_secs(&self, p: Phase) -> f64 {
        self.phases.secs(p) / self.phase_runs.max(1) as f64
    }
}

struct DesResult {
    windows: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    allocs_per_window: f64,
    bytes_per_window: f64,
}

/// Hot-loop microbenchmark: one reused simulator serving many windows.
/// Allocation counts are taken over the steady-state windows (the first
/// window warms the scratch buffers and is excluded).
fn des_microbench() -> DesResult {
    let fam = std::sync::Arc::new(Application::ImageClassification.family());
    let perf = PerfModel::a100();
    let deployment = Deployment::base(&fam, 4);
    let cap = clover_serving::analytic::estimate(&fam, &perf, &deployment, 1.0).capacity_rps;
    let mut sim = ServingSim::new(fam, perf, deployment, 7);
    let window = SimDuration::from_secs(60.0);
    let warmup = SimDuration::from_secs(3.0);
    let rate = cap * 0.7;

    // Warm the scratch so steady-state windows are measured.
    sim.run_window(rate, window, warmup);

    let windows = 40usize;
    let (a0, b0) = allocs_now();
    let t0 = Instant::now();
    let mut events = 0u64;
    for _ in 0..windows {
        let w = sim.run_window(rate, window, warmup);
        events += w.sim_events;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = allocs_now();
    DesResult {
        windows,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        allocs_per_window: (a1 - a0) as f64 / windows as f64,
        bytes_per_window: (b1 - b0) as f64 / windows as f64,
    }
}

struct OverheadResult {
    disabled: Spread,
    enabled: Spread,
    overhead_pct: f64,
    overhead_abs_s: f64,
    digests_match: bool,
    pass: bool,
}

/// The telemetry overhead gate: the largest grid (the Table-1 matrix) run
/// serially `runs` times with the no-op sink and `runs` times with every
/// pillar enabled, interleaved so thermal/load drift hits both arms alike.
/// Fails when the enabled median exceeds the disabled one by more than 1%
/// *and* more than 50 ms (the absolute guard keeps sub-second grids from
/// tripping on scheduler noise), or when the enabled run's outcome digests
/// diverge from the disabled run's (telemetry must be a strict overlay).
fn overhead_gate(hours: f64, runs: usize) -> OverheadResult {
    let configs = table1_configs(hours);
    let mut disabled_walls = Vec::with_capacity(runs);
    let mut enabled_walls = Vec::with_capacity(runs);
    let mut disabled_digests: Vec<u64> = Vec::new();
    let mut enabled_digests: Vec<u64> = Vec::new();
    for i in 0..runs {
        let t0 = Instant::now();
        let plain = Experiment::run_cells(configs.clone(), 1);
        disabled_walls.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let full = Experiment::run_cells_with(configs.clone(), 1, TelemetrySpec::ALL);
        enabled_walls.push(t1.elapsed().as_secs_f64());
        if i == 0 {
            disabled_digests = plain.iter().map(ExperimentOutcome::digest).collect();
            enabled_digests = full.iter().map(|(o, _)| o.digest()).collect();
        }
    }
    let disabled = Spread::of(disabled_walls);
    let enabled = Spread::of(enabled_walls);
    let overhead_abs_s = enabled.median - disabled.median;
    let overhead_pct = overhead_abs_s / disabled.median.max(1e-9) * 100.0;
    let digests_match = disabled_digests == enabled_digests;
    OverheadResult {
        disabled,
        enabled,
        overhead_pct,
        overhead_abs_s,
        digests_match,
        pass: digests_match && (overhead_pct <= 1.0 || overhead_abs_s <= 0.05),
    }
}

struct JournalGate {
    cells: usize,
    events: u64,
    deterministic: bool,
}

/// The journal determinism gate: the continuous full-epoch grid (the
/// densest event stream — 2-minute epochs, carry-over seams) journaled
/// serially and in parallel; the per-cell journals must be byte-identical.
fn journal_gate(hours: f64, threads: usize) -> JournalGate {
    let configs = continuous_full_epoch_configs(hours);
    let serial = Experiment::run_cells_with(configs.clone(), 1, TelemetrySpec::JOURNAL);
    let parallel = Experiment::run_cells_with(configs, threads, TelemetrySpec::JOURNAL);
    let serial_digests: Vec<u64> = serial.iter().map(|(_, r)| r.journal_digest()).collect();
    let parallel_digests: Vec<u64> = parallel.iter().map(|(_, r)| r.journal_digest()).collect();
    JournalGate {
        cells: serial.len(),
        events: serial
            .iter()
            .filter_map(|(_, r)| r.journal.as_ref())
            .map(|j| j.len())
            .sum(),
        deterministic: serial_digests == parallel_digests,
    }
}

fn main() {
    header(
        "perf_report",
        "Engine wall time, DES throughput, phase breakdown, determinism",
    );
    let hours = env_f64("CLOVER_PERF_HOURS", 6.0);
    let threads = env_usize("CLOVER_PERF_THREADS", 4);
    let runs = env_usize("CLOVER_BENCH_RUNS", 3);

    let des = des_microbench();
    log_line!(
        LogLevel::Info,
        "DES hot loop: {} windows, {:.2e} events, {:.0} events/sec, {:.1} allocs/window ({:.0} B)",
        des.windows,
        des.events as f64,
        des.events_per_sec,
        des.allocs_per_window,
        des.bytes_per_window
    );
    log_line!(LogLevel::Info, "");

    let mut results = Vec::new();
    for grid in grids(hours) {
        let r = run_grid(grid, threads, runs);
        log_line!(
            LogLevel::Info,
            "{:<26} {:>2} cells  serial {:>6.2}s [{:.2}..{:.2}]  parallel({}) {:>6.2}s [{:.2}..{:.2}]  speedup {:>4.2}x  {}",
            r.name,
            r.cells,
            r.serial.median,
            r.serial.min,
            r.serial.max,
            threads,
            r.parallel.median,
            r.parallel.min,
            r.parallel.max,
            r.speedup,
            if r.deterministic {
                "deterministic"
            } else {
                "DIVERGED"
            }
        );
        log_line!(
            LogLevel::Debug,
            "{:<26}    phases/run: plan {:.2}s (search {:.2}s)  des {:.2}s  scaler {:.3}s  carry {:.3}s",
            "",
            r.phase_secs(Phase::Plan),
            r.phase_secs(Phase::Search),
            r.phase_secs(Phase::Des),
            r.phase_secs(Phase::Scaler),
            r.phase_secs(Phase::Carry)
        );
        results.push(r);
    }

    let all_deterministic = results.iter().all(|r| r.deterministic);
    // The burst path's headline number (events/sec with every epoch fully
    // simulated), surfaced at the top level so CI diffs catch regressions
    // without digging through the grid list.
    let full_epoch_eps = results
        .iter()
        .find(|r| r.name == "full_epoch_mmpp")
        .map(|r| r.serial_events_per_sec)
        .unwrap_or(0.0);
    // The continuous path's headline number: events/sec with 2-minute
    // epochs and state carried across every boundary — continuity must not
    // cost the engine its throughput.
    let continuous_eps = results
        .iter()
        .find(|r| r.name == "continuous_full_epoch")
        .map(|r| r.serial_events_per_sec)
        .unwrap_or(0.0);
    log_line!(LogLevel::Info, "");
    log_line!(
        LogLevel::Info,
        "full-epoch burst path: {full_epoch_eps:.0} events/sec (serial)"
    );
    log_line!(
        LogLevel::Info,
        "continuous carry-over path: {continuous_eps:.0} events/sec (serial)"
    );

    let overhead = overhead_gate(hours, runs);
    log_line!(
        LogLevel::Info,
        "telemetry overhead (table1, serial, all pillars): {:+.2}% ({:+.3}s), digests {}  [{}]",
        overhead.overhead_pct,
        overhead.overhead_abs_s,
        if overhead.digests_match {
            "identical"
        } else {
            "DIVERGED"
        },
        if overhead.pass { "ok" } else { "FAIL" }
    );
    // The parallel-speedup gate: intra-epoch sharding exists so the
    // continuous grid — two uneven cells that used to serialize on one
    // 10M-event chain — actually converts cores into wall time. Enforce
    // the floor only where it is physically measurable: at least the
    // default 4 workers, on a host with that many cores, unless the
    // operator explicitly opted out. The measurement and verdict are
    // recorded either way so the ledger stays honest on 1-core boxes.
    let speedup_floor = env_f64("CLOVER_PERF_MIN_SPEEDUP", 2.5);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let allow_slow = std::env::var_os("CLOVER_PERF_ALLOW_SLOW").is_some();
    let continuous_speedup = results
        .iter()
        .find(|r| r.name == "continuous_full_epoch")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let speedup_enforced = threads >= 4 && host_cores >= threads && !allow_slow;
    let speedup_pass = !speedup_enforced || continuous_speedup >= speedup_floor;
    log_line!(
        LogLevel::Info,
        "continuous speedup gate: {:.2}x vs floor {:.2}x on {} threads ({} host cores) — {}",
        continuous_speedup,
        speedup_floor,
        threads,
        host_cores,
        if !speedup_enforced {
            "not enforced (constrained runner)"
        } else if speedup_pass {
            "pass"
        } else {
            "FAIL"
        }
    );

    let journal = journal_gate(hours, threads);
    log_line!(
        LogLevel::Info,
        "decision journal (continuous grid): {} cells, {} events, serial-vs-parallel {}",
        journal.cells,
        journal.events,
        if journal.deterministic {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    // Hand-rolled JSON: the offline serde stub does not serialize.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    json.push_str(&format!("  \"horizon_hours\": {hours},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"runs\": {runs},\n"));
    json.push_str(&format!("  \"deterministic\": {all_deterministic},\n"));
    json.push_str(&format!(
        "  \"speedup_gate\": {{\"grid\": \"continuous_full_epoch\", \"floor\": {:.2}, \"measured\": {:.3}, \"enforced\": {}, \"pass\": {}}},\n",
        speedup_floor, continuous_speedup, speedup_enforced, speedup_pass
    ));
    json.push_str(&format!(
        "  \"journal_deterministic\": {},\n",
        journal.deterministic
    ));
    json.push_str(&format!(
        "  \"telemetry_overhead\": {{\"disabled\": {}, \"enabled\": {}, \"overhead_pct\": {:.3}, \"overhead_abs_s\": {:.6}, \"digests_match\": {}, \"pass\": {}}},\n",
        overhead.disabled.json(),
        overhead.enabled.json(),
        overhead.overhead_pct,
        overhead.overhead_abs_s,
        overhead.digests_match,
        overhead.pass
    ));
    json.push_str(&format!(
        "  \"full_epoch_events_per_sec\": {full_epoch_eps:.1},\n"
    ));
    json.push_str(&format!(
        "  \"continuous_events_per_sec\": {continuous_eps:.1},\n"
    ));
    json.push_str(&format!(
        "  \"des\": {{\"windows\": {}, \"events\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \"allocs_per_window\": {:.2}, \"bytes_per_window\": {:.1}}},\n",
        des.windows, des.events, des.wall_s, des.events_per_sec, des.allocs_per_window, des.bytes_per_window
    ));
    json.push_str("  \"grids\": [\n");
    for (i, r) in results.iter().enumerate() {
        let phases = Phase::ALL
            .into_iter()
            .map(|p| format!("\"{}\": {:.6}", p.label(), r.phase_secs(p)))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cells\": {}, \"intra_epoch_shards\": {}, \"serial\": {}, \"parallel\": {}, \"speedup\": {:.3}, \"sim_events\": {}, \"serial_events_per_sec\": {:.1}, \"phases_s\": {{{}}}, \"phase_bound_ok\": {}, \"deterministic\": {}}}{}\n",
            r.name,
            r.cells,
            r.shards,
            r.serial.json(),
            r.parallel.json(),
            r.speedup,
            r.sim_events,
            r.serial_events_per_sec,
            phases,
            r.phase_bound_ok,
            r.deterministic,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_engine.json";
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    log_line!(LogLevel::Info, "");
    log_line!(LogLevel::Info, "wrote {path}");

    let mut failed = false;
    if !all_deterministic {
        eprintln!("ERROR: parallel execution diverged from the serial reference");
        failed = true;
    }
    for r in &results {
        if !r.phase_bound_ok {
            eprintln!(
                "ERROR: phase accounting for grid {} exceeded threads x wall in at least one run",
                r.name
            );
            failed = true;
        }
    }
    if !speedup_pass {
        eprintln!(
            "ERROR: continuous_full_epoch speedup {continuous_speedup:.2}x is below the \
             {speedup_floor:.2}x floor on {threads} threads ({host_cores} host cores); \
             set CLOVER_PERF_ALLOW_SLOW=1 to record without failing"
        );
        failed = true;
    }
    if !overhead.pass {
        eprintln!(
            "ERROR: telemetry overhead gate failed ({:+.2}%, {:+.3}s, digests {})",
            overhead.overhead_pct,
            overhead.overhead_abs_s,
            if overhead.digests_match {
                "identical"
            } else {
                "diverged"
            }
        );
        failed = true;
    }
    if !journal.deterministic {
        eprintln!("ERROR: decision journal diverged between serial and parallel runs");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_gate_bounds_only_the_exclusive_sum() {
        // Search (0.25 s) runs inside Plan and Carry (0.53 s) inside Des,
        // so 2 threads × 0.70 s of wall must bound plan + des + scaler =
        // 1.41 s — not the 2.19 s double count the old Σ-all gate summed.
        let t = PhaseTotals {
            secs: [0.30, 0.25, 1.10, 0.01, 0.53],
            ..PhaseTotals::default()
        };
        assert!(phase_bound_holds(&t, 2, 0.70));
        let all: f64 = Phase::ALL.into_iter().map(|p| t.secs(p)).sum();
        assert!(all > 2.0 * 0.70 * 1.05 + 0.05, "the old gate fails here");
        // A genuine overrun of the exclusive phases still fails.
        assert!(!phase_bound_holds(&t, 1, 0.70));
    }
}
