//! The end-to-end experiment runtime (paper Sec. 5.1).
//!
//! An [`Experiment`] reproduces one cell of the paper's evaluation matrix:
//! one application, one scheme, one carbon trace, one λ, over a simulated
//! horizon (48 hours by default). It drives the full control loop of Fig. 5:
//!
//! 1. derive the workload: the base rate at which the BASE deployment is
//!    neither starved nor idle, shaped by the configured
//!    [`WorkloadKind`] (the paper's Poisson by default; diurnal, MMPP and
//!    flash-crowd scenarios via
//!    [`ExperimentConfigBuilder::workload`]), and the SLA (the BASE
//!    deployment's measured p95, which is *not* relaxed when GPUs get
//!    partitioned);
//! 2. each control epoch (hourly by default, sub-hour via
//!    [`ExperimentConfigBuilder::control_epoch_s`]), the cell runtime
//!    observes the grid; if intensity drifted more than 5% since the last
//!    optimization (or at start-up, on an SLA violation, or on a fleet
//!    resize), it invokes the scheme's
//!    scheduler — its live evaluation windows and reconfiguration downtime
//!    are charged and their traffic folded into the results, exactly as the
//!    paper includes optimization overhead in all reported numbers;
//! 3. serve the epoch at the configured [`Fidelity`]: a representative
//!    window extrapolated to the epoch (the paper's methodology — valid
//!    when traffic is stationary within an epoch) or the full epoch
//!    ([`Fidelity::FullEpoch`], so bursts are actually sampled);
//! 4. account energy → carbon through the time-varying trace at PUE 1.5.
//!
//! Steps 2–4 are one [`CellRuntime::step`] per epoch — the same cell
//! runtime each regional fleet of the multi-region router runs. The
//! reference for carbon savings, accuracy loss, and normalized SLA latency
//! is a BASE cell of this runtime too: the cell of the BASE reference
//! configuration, served by the first experiment sharing it to run, over
//! the same trace and seeds through the same epoch loop. Neither it nor
//! the calibration window reads the scheme, so live experiments whose
//! inputs match share one computation of each (the window also with
//! multi-region routers).

use crate::anneal::{EvalRecord, SaParams};
use crate::autoscale::ScalingPolicy;
use crate::cell::{CellRuntime, CellTotals, Rollup, SIM_SALT};
use crate::chaos::ChaosConfig;
use crate::control::{per_hour_or_panic, EpochSchedule, Fidelity, SearchBudget};
use crate::objective::Objective;
use crate::schedulers::SchemeKind;
use clover_carbon::{CarbonIntensity, CarbonTrace, Region};
use clover_models::zoo::Application;
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{analytic, Deployment, ServingSim};
use clover_simkit::{Fnv1a, SimDuration};
use clover_telemetry::{Event, ProfilerHandle, Telemetry};
use clover_workload::{Workload, WorkloadKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// Where the carbon intensity comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSource {
    /// A synthetic regional trace (Fig. 8).
    Region(Region),
    /// A constant intensity (used by Fig. 2/3/14a-style experiments).
    Constant(f64),
}

/// Full specification of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Application under test.
    pub app: Application,
    /// Scheduling scheme.
    pub scheme: SchemeKind,
    /// Carbon-intensity source.
    pub trace: TraceSource,
    /// Traffic scenario; the shape is bound to the derived base rate (the
    /// paper evaluates under `Poisson` only).
    pub workload: WorkloadKind,
    /// GPUs provisioned to the service.
    pub n_gpus: usize,
    /// GPUs used to derive the workload rate and SLA (stays at the paper's
    /// 10 when provisioning is reduced, Fig. 15).
    pub reference_gpus: usize,
    /// How the fleet is powered up and down each hour (default:
    /// [`ScalingPolicy::Static`], the paper's fixed fleet).
    pub scaling: ScalingPolicy,
    /// The autoscaler never powers the active fleet below this.
    pub min_gpus: usize,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
    /// Objective weight λ.
    pub lambda: f64,
    /// Optional accuracy-loss ceiling, percent (Fig. 14b).
    pub accuracy_floor_pct: Option<f64>,
    /// BASE utilization the Poisson rate is tuned to.
    pub utilization_target: f64,
    /// Master seed.
    pub seed: u64,
    /// Control-plane cadence, seconds: the monitor/scaler/scheduler loop
    /// ticks once per epoch. Must evenly divide one hour (the trace's
    /// sample period). Default: 3600, the paper's hourly loop.
    pub control_epoch_s: f64,
    /// How much of each epoch the serving simulator runs (default: the
    /// paper's 240 s representative window, extrapolated).
    pub fidelity: Fidelity,
    /// SLA headroom multiplier over the measured BASE p95.
    pub sla_headroom: f64,
    /// Simulated-annealing parameters.
    pub sa: SaParams,
    /// How the SA budget relates to the control cadence (default:
    /// epoch-scaled at the paper-preserving fraction; see
    /// [`SearchBudget`]).
    pub search_budget: SearchBudget,
    /// Fault processes to inject (default: none — a healthy world, with
    /// every fault-free digest bit-identical to the pre-chaos pins; see
    /// [`crate::chaos`]).
    pub chaos: ChaosConfig,
}

impl ExperimentConfig {
    /// Starts a builder with the paper's defaults for `app`.
    pub fn builder(app: Application) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig {
                app,
                scheme: SchemeKind::Clover,
                trace: TraceSource::Region(Region::CisoMarch),
                workload: WorkloadKind::Poisson,
                n_gpus: 10,
                reference_gpus: 0, // 0 = follow n_gpus
                scaling: ScalingPolicy::Static,
                min_gpus: 1,
                horizon_hours: 48.0,
                lambda: 0.5,
                accuracy_floor_pct: None,
                utilization_target: 0.65,
                seed: 42,
                control_epoch_s: 3600.0,
                fidelity: Fidelity::representative(),
                sla_headroom: 1.05,
                sa: SaParams::default(),
                search_budget: SearchBudget::epoch_scaled(),
                chaos: ChaosConfig::off(),
            },
        }
    }

    /// The SA parameters each search of this cell runs with: [`Self::sa`]
    /// under [`Self::search_budget`] at the control cadence.
    ///
    /// # Panics
    /// With the budget's own contract on a bad fraction.
    pub fn sa_params(&self) -> SaParams {
        self.search_budget.apply(self.sa, self.control_epoch_s)
    }

    /// A deterministic relative cost estimate of running this cell —
    /// simulated serving seconds times fleet size. Grids dispatch their
    /// cells heaviest weight first, so a grid mixing full-epoch and
    /// representative-window cells does not strand one 10M-event cell on a
    /// drained pool.
    ///
    /// It ignores the offered rate, so it is not proportional to DES event
    /// volume: at equal weight a cell of a fast model serves many more
    /// requests than one of a slow model (the paper grid's Classification
    /// cells carry about 10× the events of its Detection cells). A
    /// rate-aware weight measured no gain once cells share their BASE
    /// reference, so the weight stays this simple.
    pub fn cost_weight(&self) -> f64 {
        let epochs = (self.horizon_hours * 3600.0 / self.control_epoch_s).max(1.0);
        let per_epoch_s = match self.fidelity {
            Fidelity::FullEpoch => self.control_epoch_s,
            Fidelity::RepresentativeWindow { window_s } => window_s,
        };
        epochs * per_epoch_s * self.n_gpus as f64
    }
}

/// Builder for [`ExperimentConfig`].
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the scheme.
    pub fn scheme(mut self, s: SchemeKind) -> Self {
        self.cfg.scheme = s;
        self
    }

    /// Uses a regional trace.
    pub fn region(mut self, r: Region) -> Self {
        self.cfg.trace = TraceSource::Region(r);
        self
    }

    /// Uses a constant carbon intensity (gCO₂/kWh).
    pub fn constant_ci(mut self, g_per_kwh: f64) -> Self {
        self.cfg.trace = TraceSource::Constant(g_per_kwh);
        self
    }

    /// Sets the traffic scenario (default: the paper's Poisson).
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.cfg.workload = kind;
        self
    }

    /// Sets provisioned GPUs.
    pub fn n_gpus(mut self, n: usize) -> Self {
        self.cfg.n_gpus = n;
        self
    }

    /// Sets the reference GPU count for rate/SLA derivation.
    pub fn reference_gpus(mut self, n: usize) -> Self {
        self.cfg.reference_gpus = n;
        self
    }

    /// Sets the autoscaling policy (default: the paper's static fleet).
    pub fn scaling(mut self, policy: ScalingPolicy) -> Self {
        self.cfg.scaling = policy;
        self
    }

    /// Sets the floor the autoscaler may power the fleet down to.
    pub fn min_gpus(mut self, n: usize) -> Self {
        self.cfg.min_gpus = n;
        self
    }

    /// Sets the SLA headroom multiplier over the measured BASE p95.
    pub fn sla_headroom(mut self, h: f64) -> Self {
        self.cfg.sla_headroom = h;
        self
    }

    /// Sets the horizon in hours.
    pub fn horizon_hours(mut self, h: f64) -> Self {
        self.cfg.horizon_hours = h;
        self
    }

    /// Sets λ.
    pub fn lambda(mut self, l: f64) -> Self {
        self.cfg.lambda = l;
        self
    }

    /// Sets the accuracy-loss ceiling (percent).
    pub fn accuracy_floor(mut self, pct: f64) -> Self {
        self.cfg.accuracy_floor_pct = Some(pct);
        self
    }

    /// Sets the BASE utilization target.
    pub fn utilization(mut self, u: f64) -> Self {
        self.cfg.utilization_target = u;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Sets the control-plane cadence (seconds; must evenly divide one
    /// hour). Default: 3600, the paper's hourly loop.
    pub fn control_epoch_s(mut self, s: f64) -> Self {
        self.cfg.control_epoch_s = s;
        self
    }

    /// Sets the serving-simulation fidelity (default: the paper's 240 s
    /// representative window); the one setter of the window's length.
    pub fn fidelity(mut self, f: Fidelity) -> Self {
        self.cfg.fidelity = f;
        self
    }

    /// Sets SA parameters.
    pub fn sa(mut self, sa: SaParams) -> Self {
        self.cfg.sa = sa;
        self
    }

    /// Sets how the SA budget scales with the control cadence (default:
    /// epoch-scaled at the paper-preserving fraction).
    pub fn search_budget(mut self, b: SearchBudget) -> Self {
        self.cfg.search_budget = b;
        self
    }

    /// Sets the fault processes to inject (default: none). See
    /// [`crate::chaos::ChaosConfig`]; validated at [`Self::build`].
    pub fn chaos(mut self, c: ChaosConfig) -> Self {
        self.cfg.chaos = c;
        self
    }

    /// Does nothing: every epoch runs the one single-queue DES kernel.
    /// Kept, hidden, only because `perfbench` still calls it.
    #[doc(hidden)]
    pub fn des_shards(self, _n: usize) -> Self {
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    /// Panics with a descriptive message when the configuration is
    /// internally inconsistent: zero GPUs or horizon, an objective weight
    /// λ or a BASE utilization target outside `(0, 1]`, a negative or
    /// non-finite accuracy floor, a scaling floor above the fleet size, a
    /// non-positive SLA headroom or serving window, a control epoch that
    /// does not evenly divide one hour, a representative window longer
    /// than its epoch, or provisioning *more* GPUs than the
    /// reference the workload and baseline are derived on. (The reverse —
    /// `reference_gpus > n_gpus` — is the paper's Fig. 15
    /// reduced-provisioning setup and stays valid.)
    pub fn build(mut self) -> ExperimentConfig {
        if self.cfg.reference_gpus == 0 {
            self.cfg.reference_gpus = self.cfg.n_gpus;
        }
        let cfg = &self.cfg;
        // Positive + evenly divides one hour, with the control module's
        // canonical message.
        let _ = per_hour_or_panic(cfg.control_epoch_s);
        if let Fidelity::RepresentativeWindow { window_s } = cfg.fidelity {
            assert!(
                window_s > 0.0,
                "experiment config: the representative window must be positive, got {window_s}"
            );
            assert!(
                window_s <= cfg.control_epoch_s,
                "experiment config: representative window ({window_s} s) exceeds the control \
                 epoch ({} s); a window cannot extrapolate an epoch shorter than itself — shrink \
                 the window or use Fidelity::FullEpoch",
                cfg.control_epoch_s
            );
        }
        assert!(cfg.n_gpus > 0, "experiment config: n_gpus must be positive");
        assert!(
            cfg.horizon_hours > 0.0,
            "experiment config: horizon_hours must be positive, got {}",
            cfg.horizon_hours
        );
        assert!(
            cfg.n_gpus <= cfg.reference_gpus,
            "experiment config: n_gpus ({}) exceeds reference_gpus ({}); the workload rate, SLA \
             and synchronized BASE baseline are all derived on the reference fleet, so \
             provisioning beyond it makes every relative metric meaningless (Fig. 15 shrinks \
             n_gpus below the reference, never the reverse)",
            cfg.n_gpus,
            cfg.reference_gpus
        );
        assert!(
            cfg.lambda.is_finite() && cfg.lambda > 0.0 && cfg.lambda <= 1.0,
            "experiment config: objective weight lambda must lie in (0, 1], got {} (lambda = 0 \
             would ignore carbon entirely and break the Eq. 3 trade-off the schemes optimize)",
            cfg.lambda
        );
        assert!(
            cfg.utilization_target > 0.0 && cfg.utilization_target <= 1.0,
            "experiment config: utilization target must lie in (0, 1], got {} (the BASE \
             reference is offered its capacity times this target)",
            cfg.utilization_target
        );
        if let Some(floor) = cfg.accuracy_floor_pct {
            assert!(
                floor.is_finite() && floor >= 0.0,
                "experiment config: accuracy floor must be a finite, non-negative loss in \
                 percent, got {floor}"
            );
        }
        assert!(
            (1..=cfg.n_gpus).contains(&cfg.min_gpus),
            "experiment config: min_gpus ({}) must lie in [1, n_gpus = {}]",
            cfg.min_gpus,
            cfg.n_gpus
        );
        assert!(
            cfg.sla_headroom >= 1.0,
            "experiment config: sla_headroom below 1 ({}) would demand a tighter tail than the \
             BASE reference itself measured",
            cfg.sla_headroom
        );
        let _ = cfg.sa_params();
        if let Err(e) = cfg.chaos.validate() {
            panic!("experiment config: {e}");
        }
        self.cfg
    }
}

/// One control epoch of the run timeline (Fig. 11's series; one entry per
/// hour under the default hourly cadence, finer under sub-hour epochs).
#[derive(Debug, Clone)]
pub struct HourPoint {
    /// Trace hour containing this epoch's start.
    pub hour: u32,
    /// Epoch start, hours from the start of the run (equals `hour` under
    /// the default hourly cadence).
    pub t_hours: f64,
    /// GPUs actively serving this epoch (equals the provisioned count
    /// without autoscaling).
    pub active_gpus: u32,
    /// Carbon intensity during the hour, gCO₂/kWh.
    pub ci_g_per_kwh: f64,
    /// The objective `f` of the active configuration at this intensity.
    pub objective_f: f64,
    /// Mixture accuracy served this hour, percent.
    pub accuracy_pct: f64,
    /// Hour p95 latency, seconds.
    pub p95_s: f64,
    /// IT energy per request this hour, joules.
    pub energy_per_request_j: f64,
    /// Eq. 2 carbon reduction of this hour's configuration, percent.
    pub carbon_save_pct: f64,
    /// Requests that arrived within the epoch's measured window (window
    /// counts, not extrapolated).
    pub arrived: u64,
    /// Requests served within it.
    pub served: u64,
    /// Requests dropped at the admission queue within it.
    pub dropped: u64,
    /// Requests still queued or in flight at the epoch's closing boundary
    /// (continuous full-epoch serving; always 0 under the representative
    /// window, which drains). Together with the three counters above this
    /// closes the per-boundary conservation law
    /// `Σ arrived == Σ served + Σ dropped + backlog` at every epoch.
    pub backlog: u64,
}

/// One optimization invocation (Figs. 12–13).
#[derive(Debug, Clone)]
pub struct InvocationRecord {
    /// Trace time of the invocation, hours.
    pub at_hours: f64,
    /// Live time spent evaluating (plus reconfiguring), seconds.
    pub time_spent_s: f64,
    /// Every configuration evaluated.
    pub evals: Vec<EvalRecord>,
}

/// Aggregated result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Application label.
    pub app: String,
    /// Provisioned GPUs.
    pub n_gpus: usize,
    /// Time-averaged actively serving GPUs over the horizon (equals
    /// `n_gpus` without autoscaling).
    pub mean_active_gpus: f64,
    /// Horizon, hours.
    pub horizon_hours: f64,
    /// Offered Poisson rate, req/s.
    pub rate_rps: f64,
    /// SLA p95 target, seconds.
    pub sla_p95_s: f64,
    /// Total operational carbon of the scheme, grams.
    pub total_carbon_g: f64,
    /// Total operational carbon of the synchronized BASE run, grams.
    pub base_carbon_g: f64,
    /// Carbon saving vs BASE, percent.
    pub carbon_saving_pct: f64,
    /// Served-weighted accuracy over the run, percent.
    pub accuracy_pct: f64,
    /// Accuracy loss vs `A_base`, percent (≥ 0).
    pub accuracy_loss_pct: f64,
    /// Accuracy gain vs BASE, percent (≤ 0; Fig. 10's y-axis).
    pub accuracy_gain_pct: f64,
    /// Run-level p95 latency, seconds.
    pub p95_s: f64,
    /// BASE run-level p95 latency, seconds.
    pub base_p95_s: f64,
    /// p95 normalized to the BASE reference (Fig. 9/15's metric).
    pub p95_norm_to_base: f64,
    /// Whether the run-level p95 met the SLA.
    pub sla_met: bool,
    /// Run-average IT energy per request, joules.
    pub energy_per_request_j: f64,
    /// Carbon saved per request vs BASE, grams (drives the §5.2.1 estimate).
    pub saving_g_per_request: f64,
    /// Total live time spent in optimization, seconds.
    pub optimization_time_s: f64,
    /// Optimization time as a fraction of the horizon.
    pub optimization_fraction: f64,
    /// Requests served (extrapolated to the full horizon).
    pub served_scaled: f64,
    /// Discrete events the DES engine processed across every simulated
    /// window of the run (serving hours, evaluation windows, and the BASE
    /// reference) — the workload denominator for ns/event reporting.
    pub sim_events: u64,
    /// Per-epoch timeline (hourly under the default cadence).
    pub timeline: Vec<HourPoint>,
    /// Optimization invocations.
    pub invocations: Vec<InvocationRecord>,
}

impl ExperimentOutcome {
    /// Total configurations evaluated across all invocations.
    pub fn evals_total(&self) -> usize {
        self.invocations.iter().map(|i| i.evals.len()).sum()
    }

    /// An order-sensitive 64-bit digest over the outcome's numeric results
    /// (bit patterns, not rounded values): totals, per-epoch timeline and
    /// invocation bookkeeping. Two outcomes digest equal iff the runs were
    /// numerically identical — the cheap way to pin that a parallel grid
    /// reproduced its serial reference byte for byte.
    ///
    /// The fed field set is frozen at the pre-control-plane one (newer
    /// fields like `t_hours` are derived from what is already eaten), so
    /// default-configuration digests stay comparable across the refactor — `tests/control_plane.rs` pins them
    /// against values recorded before the extraction.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the f64 bit patterns and counters.
        let mut h = Fnv1a::default();
        for v in [
            self.rate_rps,
            self.sla_p95_s,
            self.total_carbon_g,
            self.base_carbon_g,
            self.accuracy_pct,
            self.p95_s,
            self.base_p95_s,
            self.energy_per_request_j,
            self.optimization_time_s,
            self.served_scaled,
        ] {
            h.eat(v.to_bits());
        }
        h.eat(self.n_gpus as u64);
        h.eat(self.mean_active_gpus.to_bits());
        h.eat(self.sim_events);
        h.eat(self.invocations.len() as u64);
        h.eat(self.evals_total() as u64);
        for p in &self.timeline {
            h.eat(u64::from(p.hour));
            h.eat(u64::from(p.active_gpus));
            h.eat(p.ci_g_per_kwh.to_bits());
            h.eat(p.objective_f.to_bits());
            h.eat(p.accuracy_pct.to_bits());
            h.eat(p.p95_s.to_bits());
            h.eat(p.energy_per_request_j.to_bits());
            h.eat(p.carbon_save_pct.to_bits());
        }
        for inv in &self.invocations {
            h.eat(inv.at_hours.to_bits());
            h.eat(inv.time_spent_s.to_bits());
            for e in &inv.evals {
                h.eat(u64::from(e.order));
                h.eat(e.delta_carbon_pct.to_bits());
                h.eat(e.delta_accuracy_pct.to_bits());
                h.eat(e.objective_f.to_bits());
                h.eat(u64::from(e.sla_ok));
                h.eat(u64::from(e.accepted));
            }
        }
        h.finish()
    }

    /// Evaluated configurations that met the SLA.
    pub fn evals_sla_ok(&self) -> usize {
        self.invocations
            .iter()
            .flat_map(|i| &i.evals)
            .filter(|e| e.sla_ok)
            .count()
    }

    /// Optimization-time fraction per consecutive window of
    /// `window_hours` (Fig. 12a's bars). Each window is divided by its own
    /// length, so a last window that the horizon cuts short is a fraction
    /// of the hours it covers.
    pub fn opt_fraction_by_window(&self, window_hours: f64) -> Vec<f64> {
        let n = (self.horizon_hours / window_hours).ceil() as usize;
        let mut out = vec![0.0; n];
        for inv in &self.invocations {
            let idx = ((inv.at_hours / window_hours) as usize).min(n.saturating_sub(1));
            out[idx] += inv.time_spent_s;
        }
        for (i, w) in out.iter_mut().enumerate() {
            let hours = (self.horizon_hours - i as f64 * window_hours).min(window_hours);
            *w /= hours * 3600.0;
        }
        out
    }
}

/// The BASE yardstick of Sec. 5.1: the rate BASE is offered at the
/// utilization target, and the p95 (→ the SLA) and energy per request
/// (→ `C_base`) a calibration window measures there. The experiment and
/// the multi-region router both get theirs from [`BaseYardstick::shared`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseYardstick {
    /// Offered base rate across every share, req/s.
    pub rate_rps: f64,
    /// Serving capacity one BASE GPU contributes, req/s.
    pub capacity_per_gpu_rps: f64,
    /// BASE IT energy per request over the calibration window, joules.
    pub energy_per_request_j: f64,
    /// BASE p95 latency over the calibration window, seconds.
    pub p95_s: f64,
}

impl BaseYardstick {
    /// The yardstick of `shares` BASE deployments of `base_gpus` GPUs each
    /// (1 for a cluster, one per region for the router), with the slot it
    /// lives in: the rate is their analytic capacity times `utilization`,
    /// and one of them is calibrated at its share. Every live cell with
    /// equal `(app, base_gpus, shares, utilization, seed)` gets the same
    /// slot and the first to ask derives it there, on `app`'s model family
    /// and the A100 every cell serves on, so a cell holds the slot while it
    /// lives.
    ///
    /// # Panics
    /// If the calibration window serves nothing.
    pub fn shared(
        app: Application,
        base_gpus: usize,
        shares: usize,
        utilization: f64,
        seed: u64,
    ) -> (Self, Arc<OnceLock<Self>>) {
        let key = (app, base_gpus, shares, utilization, seed);
        let slot = CALIBRATIONS.slot(key, OnceLock::new);
        let yardstick =
            *slot.get_or_init(|| Self::derive(app, base_gpus, shares, utilization, seed));
        (yardstick, slot)
    }

    /// Derives [`BaseYardstick::shared`]'s yardstick. The window is long
    /// enough that the p95's sampling noise sits well inside the SLA
    /// headroom.
    fn derive(
        app: Application,
        base_gpus: usize,
        shares: usize,
        utilization: f64,
        seed: u64,
    ) -> Self {
        let (family, perf) = (Arc::new(app.family()), PerfModel::a100());
        let base = Deployment::base(&family, base_gpus);
        let capacity = analytic::estimate(family.as_ref(), &perf, &base, 1.0).capacity_rps;
        // At one share `× shares` and `/ shares` are exact: a cluster's bits
        // are those of `capacity × utilization`.
        let shares = shares as f64;
        let rate_rps = capacity * shares * utilization;
        let mut calib = ServingSim::new(family, perf, base, seed ^ 0xCA11_B007);
        let w = calib.run_window(
            rate_rps / shares,
            SimDuration::from_secs(160.0),
            SimDuration::from_secs(16.0),
        );
        BaseYardstick {
            rate_rps,
            capacity_per_gpu_rps: capacity / base_gpus as f64,
            energy_per_request_j: w.energy_per_request_j().expect("calibration served"),
            p95_s: w.p95_latency_s().expect("calibration served"),
        }
    }

    /// The objective at weight `lambda`: the SLA is the measured p95 times
    /// `headroom`, and `C_base` the energy per request priced at `ci_ref`.
    pub fn objective(
        &self,
        a_base_pct: f64,
        ci_ref: CarbonIntensity,
        headroom: f64,
        lambda: f64,
    ) -> Objective {
        let c_base = Objective::carbon_per_request_g(self.energy_per_request_j, ci_ref);
        Objective::new(a_base_pct, c_base, self.p95_s * headroom).with_lambda(lambda)
    }
}

/// The configuration `cfg`'s synchronized BASE reference is the cell of,
/// and so its whole input and its sharing key: BASE on the reference fleet
/// over `cfg`'s app, trace, workload, fidelity, cadence, horizon,
/// utilization and seed, all else at the builder default. Faults stay off,
/// so a failing scheme cannot hide behind a failing baseline. Floats
/// compare by `==`: a NaN field never shares.
fn reference_config(cfg: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::Base,
        trace: cfg.trace,
        workload: cfg.workload.clone(),
        n_gpus: cfg.reference_gpus,
        reference_gpus: cfg.reference_gpus,
        horizon_hours: cfg.horizon_hours,
        utilization_target: cfg.utilization_target,
        seed: cfg.seed,
        control_epoch_s: cfg.control_epoch_s,
        fidelity: cfg.fidelity.clone(),
        ..ExperimentConfig::builder(cfg.app).build()
    }
}

/// Salt of the BASE reference's serving stream: its simulator is seeded
/// `seed ^ REFERENCE_SIM_SALT`, apart from the cell's.
const REFERENCE_SIM_SALT: u64 = 0x22;

/// The inputs the BASE yardstick reads: application, GPUs per BASE
/// deployment, deployment count (1 for a cluster, the region count for a
/// router) and utilization target (which fix the BASE deployment and its
/// offered rate) and seed.
type CalibrationKey = (Application, usize, usize, f64, u64);

/// A process-wide table of values shared by every live cell with an equal
/// key. Entries are weak, so a value dies with the last cell holding it
/// and nothing is cached across separately built grids.
struct SharedTable<K, V>(Mutex<Vec<(K, Weak<V>)>>);

impl<K: PartialEq, V> SharedTable<K, V> {
    const fn new() -> Self {
        SharedTable(Mutex::new(Vec::new()))
    }

    /// The live value under `key`, or `empty()` registered under it.
    /// The lock covers this lookup and `empty`, which must stay cheap:
    /// holders fill the costly part of their values (a calibration
    /// window, a reference's totals) later, never under it.
    fn slot(&self, key: K, empty: impl FnOnce() -> V) -> Arc<V> {
        // Every update below leaves the table valid (a panic in `empty`
        // happens before the push), so a poisoned lock is safe to reuse.
        let mut entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|(_, v)| v.strong_count() > 0);
        if let Some(v) = entries
            .iter()
            .filter(|(k, _)| *k == key)
            .find_map(|(_, v)| v.upgrade())
        {
            return v;
        }
        let v = Arc::new(empty());
        entries.push((key, Arc::downgrade(&v)));
        v
    }
}

static REFERENCES: SharedTable<ExperimentConfig, BaseReference> = SharedTable::new();
static CALIBRATIONS: SharedTable<CalibrationKey, OnceLock<BaseYardstick>> = SharedTable::new();

/// The synchronized BASE reference of every live experiment with an equal
/// [`reference_config`]: that configuration, and its cell's totals once
/// some experiment has served them.
struct BaseReference {
    cfg: ExperimentConfig,
    /// Held so that experiments built while this reference lives share
    /// the calibration window; its key is a function of `cfg`.
    _calibration: Arc<OnceLock<BaseYardstick>>,
    /// Set by the first experiment to start running; that one computes
    /// the totals before its own epochs.
    claimed: AtomicBool,
    totals: OnceLock<CellTotals>,
}

impl BaseReference {
    /// True for exactly one caller: the experiment that computes first.
    fn claim(&self) -> bool {
        // The flag publishes no data (the totals synchronize through their
        // `OnceLock`), so the swap needs no ordering beyond its atomicity.
        !self.claimed.swap(true, Ordering::Relaxed)
    }

    /// The reference's totals, served by `on` on this thread (timed into
    /// `profiler`, journaled nowhere) if no one has yet. Blocks while
    /// another thread serves them; if that thread panicked, serves them
    /// here instead.
    fn totals(&self, on: &Experiment, profiler: Option<ProfilerHandle>) -> &CellTotals {
        self.totals.get_or_init(|| {
            let mut telemetry = Telemetry::profiling_into(profiler);
            on.serve(&self.cfg, REFERENCE_SIM_SALT, &mut telemetry).0
        })
    }
}

/// A runnable experiment with its derived workload, SLA and objective.
///
/// Heavy shared inputs — the model family and the carbon trace — are held
/// behind `Arc`s: every simulator, evaluator, monitor and ledger spun up by
/// [`Experiment::run`] shares them instead of deep-cloning per construction.
pub struct Experiment {
    cfg: ExperimentConfig,
    family: Arc<ModelFamily>,
    perf: PerfModel,
    trace: Arc<CarbonTrace>,
    /// Offered base (long-run mean) rate, req/s.
    pub rate_rps: f64,
    /// Serving capacity one BASE-deployment GPU contributes, req/s — the
    /// unit the autoscaler sizes fleets in.
    pub capacity_per_gpu_rps: f64,
    /// The traffic scenario bound to the derived base rate.
    pub workload: Workload,
    /// The derived objective (λ, C_base, A_base, SLA).
    pub objective: Objective,
    /// The shared BASE reference.
    reference: Arc<BaseReference>,
}

impl Experiment {
    /// Derives workload, SLA and objective baselines for `cfg`: the
    /// [`BaseYardstick`] of the reference fleet, with `C_base` priced at
    /// the trace's mean intensity. The synchronized BASE reference is the
    /// BASE cell of the reference configuration, registered here only
    /// when no live experiment shares it yet.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let family = Arc::new(cfg.app.family());
        let perf = PerfModel::a100();
        let trace = Arc::new(match cfg.trace {
            TraceSource::Region(r) => r.run_trace(cfg.horizon_hours, cfg.seed),
            TraceSource::Constant(v) => CarbonTrace::constant(
                CarbonIntensity::from_g_per_kwh(v),
                SimDuration::from_hours(cfg.horizon_hours + 1.0),
            ),
        });

        let (gpus, u, seed) = (cfg.reference_gpus, cfg.utilization_target, cfg.seed);
        let (yardstick, calibration) = BaseYardstick::shared(cfg.app, gpus, 1, u, seed);
        let workload = Workload::new(cfg.workload.clone(), yardstick.rate_rps);
        let mut objective = yardstick.objective(
            family.accuracy_base(),
            trace.mean(),
            cfg.sla_headroom,
            cfg.lambda,
        );
        if let Some(floor) = cfg.accuracy_floor_pct {
            objective = objective.with_accuracy_floor(floor);
        }
        let key = reference_config(&cfg);
        let reference = REFERENCES.slot(key.clone(), move || BaseReference {
            cfg: key,
            _calibration: calibration,
            claimed: AtomicBool::new(false),
            totals: OnceLock::new(),
        });

        Experiment {
            cfg,
            family,
            perf,
            trace,
            rate_rps: yardstick.rate_rps,
            capacity_per_gpu_rps: yardstick.capacity_per_gpu_rps,
            workload,
            objective,
            reference,
        }
    }

    /// The configuration this experiment runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Does nothing: a cell's serving runs on the thread that runs the
    /// cell. Kept, hidden, only because `perfbench` still calls it.
    #[doc(hidden)]
    pub fn set_shard_threads(&mut self, _threads: Option<usize>) {}

    /// Builds every cell, then runs them in input order on this thread;
    /// `_threads` is ignored, because only grid entry points spawn workers.
    /// Kept, hidden, only because `perfbench` calls it (with one thread):
    /// grids run through `clover_router::run_cells_with`.
    #[doc(hidden)]
    pub fn run_cells(configs: Vec<ExperimentConfig>, _threads: usize) -> Vec<ExperimentOutcome> {
        let cells: Vec<Experiment> = configs.into_iter().map(Experiment::new).collect();
        cells.iter().map(Experiment::run).collect()
    }

    /// The carbon trace in force.
    pub fn trace(&self) -> &CarbonTrace {
        &self.trace
    }

    /// Runs the experiment (scheme plus the synchronized BASE reference).
    ///
    /// Each [`crate::control::ControlEpoch`] of the schedule is one
    /// [`CellRuntime::step`]: plan, serve, observe, and account. The
    /// synchronized BASE reference serves the same epochs
    /// on the reference fleet. Under the default configuration (hourly
    /// epochs, representative window) the numbers are bit-identical to the
    /// pre-extraction hourly loop (pinned by `tests/control_plane.rs`).
    ///
    /// Equivalent to [`Experiment::run_with`] against the no-op telemetry
    /// sink.
    pub fn run(&self) -> ExperimentOutcome {
        self.run_with(&mut Telemetry::disabled())
    }

    /// [`Experiment::run`] with a telemetry sink.
    ///
    /// Beyond the cell's own events and phase scopes
    /// ([`CellRuntime::step`]), the runtime emits one `conservation`
    /// checkpoint per epoch — the window counters that close the
    /// per-boundary conservation law, matching the [`HourPoint`] the
    /// timeline records. When this experiment computes the synchronized
    /// BASE reference, the reference cell's phase scopes land in its
    /// profile too, and the reference's events in no journal. Telemetry
    /// is a strict overlay: with the no-op sink this method *is*
    /// [`Experiment::run`], bit for bit.
    ///
    /// The BASE reference is shared by every live experiment with the same
    /// reference configuration. The first of them to run computes it before
    /// its own epochs; every other one serves its epochs first and then
    /// reads it, waiting if it is still being computed (or computing it
    /// itself if the claimer panicked). Sharing changes no result.
    pub fn run_with(&self, telemetry: &mut Telemetry) -> ExperimentOutcome {
        let cfg = &self.cfg;
        let reference = &self.reference;
        if reference.claim() {
            reference.totals(self, telemetry.profiler());
        }
        let (totals, timeline, invocations) = self.serve(cfg, SIM_SALT, telemetry);
        let base = reference.totals(self, telemetry.profiler());
        let schedule = EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s);
        let [run, base] = [&totals, base].map(|t| Rollup::of(&[t], &self.family, &schedule));
        let (a_base, accuracy_pct, p95_s) =
            (self.family.accuracy_base(), run.accuracy_pct, run.p95_s);

        ExperimentOutcome {
            scheme: cfg.scheme.label().to_string(),
            app: cfg.app.label().to_string(),
            n_gpus: cfg.n_gpus,
            mean_active_gpus: run.mean_active_gpus,
            horizon_hours: cfg.horizon_hours,
            rate_rps: self.rate_rps,
            sla_p95_s: self.objective.l_tail_s,
            total_carbon_g: run.carbon_g,
            base_carbon_g: base.carbon_g,
            carbon_saving_pct: (base.carbon_g - run.carbon_g) / base.carbon_g * 100.0,
            accuracy_pct,
            accuracy_loss_pct: (a_base - accuracy_pct) / a_base * 100.0,
            accuracy_gain_pct: (accuracy_pct - a_base) / a_base * 100.0,
            p95_s,
            base_p95_s: base.p95_s,
            p95_norm_to_base: p95_s / base.p95_s,
            sla_met: p95_s <= self.objective.l_tail_s,
            energy_per_request_j: run.energy_per_request_j,
            saving_g_per_request: base.carbon_per_request_g - run.carbon_per_request_g,
            optimization_time_s: run.optimization_time_s,
            optimization_fraction: run.optimization_time_s / (cfg.horizon_hours * 3600.0),
            served_scaled: run.served_scaled,
            sim_events: run.sim_events + base.sim_events,
            timeline,
            invocations,
        }
    }

    /// Steps the [`CellRuntime`] of `cfg` (this experiment's, or its BASE
    /// reference's) through every epoch of the schedule, its serving
    /// simulator seeded `seed ^ sim_salt`, and returns its totals, timeline
    /// and invocations. Every input besides `cfg` comes from this
    /// experiment; for a reference those are functions of its key, except
    /// the objective, which the BASE cell reads only into its timeline.
    fn serve(
        &self,
        cfg: &ExperimentConfig,
        sim_salt: u64,
        telemetry: &mut Telemetry,
    ) -> (CellTotals, Vec<HourPoint>, Vec<InvocationRecord>) {
        let schedule = EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s);
        let mut cell = CellRuntime::new(
            cfg,
            self.family.clone(),
            self.perf,
            self.trace.clone(),
            self.capacity_per_gpu_rps,
            self.rate_rps,
        );
        cell.reseed_serving(cfg.seed ^ sim_salt);
        cell.set_profiler(telemetry.profiler());
        let mut timeline = Vec::with_capacity(schedule.count() as usize);
        let mut invocations = Vec::new();
        for epoch in schedule.iter() {
            let t = epoch.start;
            let rec = cell.step(
                &epoch,
                &self.objective,
                &self.workload,
                self.workload.process_from(t).as_mut(),
                telemetry,
            );
            let (w, backlog) = (&rec.window, rec.point.backlog);
            // The conservation checkpoint mirrors the HourPoint counters
            // exactly (window counts, not extrapolated): `tests/telemetry.rs`
            // cross-checks the journal against the timeline, and summing
            // the stream verifies Σ arrived == Σ served + Σ dropped +
            // closing backlog without rerunning anything.
            telemetry.emit(
                Event::new("conservation", t)
                    .u64("epoch", u64::from(epoch.index))
                    .u64("arrived", w.arrived)
                    .u64("served", w.served)
                    .u64("dropped", w.dropped)
                    .u64("backlog", backlog)
                    .f64("leak", w.conservation_leak as f64),
            );
            timeline.push(rec.point);
            invocations.extend(rec.invocation);
        }
        (cell.into_totals(), timeline, invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(scheme: SchemeKind) -> ExperimentConfig {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(scheme)
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(3)
            .build()
    }

    fn quick(scheme: SchemeKind) -> ExperimentOutcome {
        Experiment::new(quick_config(scheme)).run()
    }

    /// A small FullEpoch cell for the sharing tests. Each test passes a
    /// seed no other test uses, so no concurrent test shares its slots.
    fn sharing_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(4)
            .horizon_hours(2.0)
            .control_epoch_s(1800.0)
            .fidelity(Fidelity::FullEpoch)
            .seed(seed)
            .build()
    }

    #[test]
    fn reference_and_calibration_are_shared_by_exactly_their_keys() {
        type Edit = fn(&mut ExperimentConfig);
        let base_cfg = sharing_config(0x5EED_00A1);
        let base = Experiment::new(base_cfg.clone());
        // Each edit changes one reference-key field alone; the flag marks
        // the fields the calibration window reads too.
        let key_fields: [(&str, bool, Edit); 9] = [
            ("app", true, |c| c.app = Application::ObjectDetection),
            ("seed", true, |c| c.seed += 1),
            ("reference_gpus", true, |c| c.reference_gpus = 6),
            ("utilization_target", true, |c| c.utilization_target = 0.6),
            ("workload", false, |c| {
                c.workload = WorkloadKind::flash_crowd()
            }),
            ("trace", false, |c| {
                c.trace = TraceSource::Region(Region::EsoMarch)
            }),
            ("fidelity", false, |c| {
                c.fidelity = Fidelity::representative()
            }),
            ("control_epoch_s", false, |c| c.control_epoch_s = 900.0),
            ("horizon_hours", false, |c| c.horizon_hours = 3.0),
        ];
        for (name, calibration_field, edit) in key_fields {
            let mut cfg = base_cfg.clone();
            edit(&mut cfg);
            let e = Experiment::new(cfg);
            assert!(
                !Arc::ptr_eq(&base.reference, &e.reference),
                "changing {name} kept the reference slot"
            );
            assert_eq!(
                Arc::ptr_eq(&base.reference._calibration, &e.reference._calibration),
                !calibration_field,
                "changing {name}: wrong calibration sharing"
            );
        }
        let other_fields: [(&str, Edit); 10] = [
            ("scheme", |c| c.scheme = SchemeKind::Co2Opt),
            ("n_gpus", |c| c.n_gpus = 3),
            ("lambda", |c| c.lambda = 0.9),
            ("scaling", |c| c.scaling = ScalingPolicy::reactive()),
            ("min_gpus", |c| c.min_gpus = 2),
            ("chaos", |c| c.chaos = ChaosConfig::resilience(24.0)),
            ("sla_headroom", |c| c.sla_headroom = 1.5),
            ("sa", |c| c.sa.t0 = 2.0),
            ("search_budget", |c| c.search_budget = SearchBudget::Fixed),
            ("accuracy_floor_pct", |c| c.accuracy_floor_pct = Some(2.0)),
        ];
        for (name, edit) in other_fields {
            let mut cfg = base_cfg.clone();
            edit(&mut cfg);
            let e = Experiment::new(cfg);
            assert!(
                Arc::ptr_eq(&base.reference, &e.reference),
                "changing {name} split the reference slot"
            );
            assert!(
                Arc::ptr_eq(&base.reference._calibration, &e.reference._calibration),
                "changing {name} split the calibration slot"
            );
        }
        // A NaN field never matches, not even itself.
        let mut key = reference_config(&base_cfg);
        key.horizon_hours = f64::NAN;
        assert_ne!(key, key.clone());
    }

    #[test]
    fn a_cell_reading_a_sibling_reference_matches_its_solo_run() {
        let window = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(0x5EED_00B1)
            .build();
        let mut full = sharing_config(0x5EED_00B2);
        full.horizon_hours = 0.5;
        full.control_epoch_s = 600.0;
        full.n_gpus = 2;
        full.reference_gpus = 2;
        // The DES scopes each run records: one per epoch it serves.
        let des_scopes = |e: &Experiment| {
            let mut telemetry = Telemetry::profiling_into(Some(ProfilerHandle::new()));
            let out = e.run_with(&mut telemetry);
            let phases = telemetry.take_report().phases.expect("profiling enabled");
            (out, phases.scopes(clover_telemetry::Phase::Des))
        };
        for cfg in [window, full] {
            let fidelity = cfg.fidelity.label();
            let solo = Experiment::new(cfg.clone()).run();
            let epochs =
                u64::from(EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s).count());
            let other_scheme = ExperimentConfig {
                scheme: SchemeKind::Co2Opt,
                ..cfg.clone()
            };
            // The sibling serves the reference on its own objective, whose
            // inputs lie outside the reference key.
            let other_objective = ExperimentConfig {
                lambda: 0.9,
                sla_headroom: 1.5,
                accuracy_floor_pct: Some(2.0),
                ..other_scheme.clone()
            };
            for sibling in [other_scheme, other_objective] {
                let sibling = Experiment::new(sibling);
                let cell = Experiment::new(cfg.clone());
                assert!(Arc::ptr_eq(&sibling.reference, &cell.reference));
                // The sibling claims the reference and serves it too.
                assert_eq!(des_scopes(&sibling).1, 2 * epochs, "{fidelity}");
                assert!(
                    cell.reference.totals.get().is_some(),
                    "the sibling left the reference empty"
                );
                let (shared, scopes) = des_scopes(&cell);
                assert_eq!(scopes, epochs, "{fidelity}");
                assert_eq!(shared.digest(), solo.digest(), "{fidelity}");
                assert_eq!(shared.base_carbon_g.to_bits(), solo.base_carbon_g.to_bits());
                assert_eq!(shared.base_p95_s.to_bits(), solo.base_p95_s.to_bits());
            }
        }
    }

    #[test]
    fn a_claimer_panicking_mid_reference_leaves_its_sibling_to_finish() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(4)
            .horizon_hours(6.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(0x5EED_00C1)
            .build();
        let expected = Experiment::new(cfg.clone()).run();
        let claimer = Experiment::new(ExperimentConfig {
            scheme: SchemeKind::Co2Opt,
            ..cfg.clone()
        });
        let sibling = Experiment::new(cfg);
        assert!(Arc::ptr_eq(&claimer.reference, &sibling.reference));

        let crashed = std::thread::spawn(move || {
            assert!(claimer.reference.claim());
            claimer
                .reference
                .totals
                .get_or_init(|| panic!("claimer crashed mid-reference"));
        });
        assert!(crashed.join().is_err(), "the claimer was meant to panic");
        // The reference is claimed but empty: the sibling must compute it
        // rather than wait for the dead claimer.
        let (done_tx, done_rx) = mpsc::channel();
        let finisher = std::thread::spawn(move || done_tx.send(sibling.run()).unwrap());
        let out = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the sibling hung on a crashed claimer");
        finisher.join().unwrap();
        assert_eq!(out.digest(), expected.digest());
        assert_eq!(
            out.base_carbon_g.to_bits(),
            expected.base_carbon_g.to_bits()
        );
        assert_eq!(out.base_p95_s.to_bits(), expected.base_p95_s.to_bits());
    }

    #[test]
    fn base_scheme_is_the_reference() {
        let out = quick(SchemeKind::Base);
        assert!(
            out.carbon_saving_pct.abs() < 8.0,
            "BASE vs BASE saving {}",
            out.carbon_saving_pct
        );
        assert!(out.accuracy_loss_pct.abs() < 1e-9);
        assert!(out.sla_met, "BASE violates its own SLA");
        assert_eq!(out.evals_total(), 0);
        assert_eq!(out.optimization_time_s, 0.0);
        assert_eq!(out.timeline.len(), 6);
    }

    #[test]
    fn co2opt_saves_most_carbon_with_most_accuracy_loss() {
        let out = quick(SchemeKind::Co2Opt);
        assert!(
            out.carbon_saving_pct > 70.0,
            "saving {}",
            out.carbon_saving_pct
        );
        assert!(
            out.accuracy_loss_pct > 4.0,
            "loss {}",
            out.accuracy_loss_pct
        );
        assert!(
            out.sla_met,
            "CO2OPT p95 {} vs SLA {}",
            out.p95_s, out.sla_p95_s
        );
    }

    #[test]
    fn clover_balances_carbon_and_accuracy() {
        let out = quick(SchemeKind::Clover);
        let co2 = quick(SchemeKind::Co2Opt);
        assert!(
            out.carbon_saving_pct > 50.0,
            "saving {}",
            out.carbon_saving_pct
        );
        assert!(
            out.accuracy_loss_pct < co2.accuracy_loss_pct,
            "clover loss {} vs co2opt {}",
            out.accuracy_loss_pct,
            co2.accuracy_loss_pct
        );
        assert!(out.sla_met, "p95 {} vs SLA {}", out.p95_s, out.sla_p95_s);
        assert!(out.evals_total() > 0);
        assert!(out.optimization_fraction > 0.0 && out.optimization_fraction < 0.2);
    }

    #[test]
    fn outcome_bookkeeping_consistent() {
        let out = quick(SchemeKind::Clover);
        assert!(out.served_scaled > 0.0);
        assert!(out.total_carbon_g > 0.0);
        assert_eq!(out.timeline.len(), 6);
        let windows = out.opt_fraction_by_window(2.0);
        assert_eq!(windows.len(), 3);
        let total_from_windows: f64 = windows.iter().map(|f| f * 2.0 * 3600.0).sum();
        assert!((total_from_windows - out.optimization_time_s).abs() < 1e-6);
        // A window that does not divide the horizon: 0-4 h and a 2 h tail,
        // each a fraction of the hours it covers.
        let windows = out.opt_fraction_by_window(4.0);
        assert_eq!(windows.len(), 2);
        let total_from_windows = windows[0] * 4.0 * 3600.0 + windows[1] * 2.0 * 3600.0;
        assert!((total_from_windows - out.optimization_time_s).abs() < 1e-6);
        // One window past the horizon is the whole run's fraction.
        let whole = out.opt_fraction_by_window(8.0);
        assert_eq!(whole.len(), 1);
        assert!((whole[0] - out.optimization_fraction).abs() < 1e-12);
        assert!(out.evals_sla_ok() <= out.evals_total());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(SchemeKind::Clover);
        let b = quick(SchemeKind::Clover);
        assert_eq!(a.total_carbon_g, b.total_carbon_g);
        assert_eq!(a.evals_total(), b.evals_total());
        assert_eq!(a.p95_s, b.p95_s);
    }

    #[test]
    fn reduced_provisioning_below_the_reference_is_valid() {
        // The paper's Fig. 15 setup: fewer GPUs than the 10-GPU reference
        // the workload and SLA are derived on. Must keep building.
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(4)
            .reference_gpus(10)
            .build();
        assert_eq!(cfg.n_gpus, 4);
        assert_eq!(cfg.reference_gpus, 10);
        // And the default reference follows n_gpus.
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(3)
            .build();
        assert_eq!(cfg.reference_gpus, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds reference_gpus")]
    fn overprovisioning_beyond_the_reference_rejected() {
        // n_gpus > reference_gpus would compare a big fleet against a
        // small BASE baseline — every relative metric becomes meaningless.
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(10)
            .reference_gpus(4)
            .build();
    }

    #[test]
    #[should_panic(expected = "lambda must lie in (0, 1]")]
    fn nonpositive_lambda_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .lambda(0.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "lambda must lie in (0, 1]")]
    fn oversized_lambda_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .lambda(1.5)
            .build();
    }

    #[test]
    #[should_panic(expected = "utilization target must lie in (0, 1], got 0")]
    fn zero_utilization_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .utilization(0.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "utilization target must lie in (0, 1], got 1.5")]
    fn oversized_utilization_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .utilization(1.5)
            .build();
    }

    #[test]
    #[should_panic(expected = "utilization target must lie in (0, 1], got NaN")]
    fn nan_utilization_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .utilization(f64::NAN)
            .build();
    }

    #[test]
    #[should_panic(expected = "accuracy floor must be a finite, non-negative loss")]
    fn negative_accuracy_floor_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .accuracy_floor(-1.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "min_gpus")]
    fn scaling_floor_above_fleet_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .n_gpus(2)
            .min_gpus(3)
            .build();
    }

    #[test]
    fn static_scaling_charges_no_standby_and_keeps_the_fleet() {
        let cfg = quick_config(SchemeKind::Clover);
        assert_eq!(cfg.scaling.label(), "static");
        let out = Experiment::new(cfg).run();
        assert_eq!(out.mean_active_gpus, 4.0);
        assert!(out.timeline.iter().all(|h| h.active_gpus == 4));
    }

    #[test]
    #[should_panic(expected = "evenly divide one hour")]
    fn ragged_control_epoch_rejected() {
        // 700 s epochs would straddle the hourly carbon-trace samples.
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .control_epoch_s(700.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_control_epoch_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .control_epoch_s(0.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "the representative window must be positive, got 0")]
    fn nonpositive_window_rejected() {
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 0.0 })
            .build();
    }

    #[test]
    #[should_panic(expected = "exceeds the control epoch")]
    fn window_longer_than_its_epoch_rejected() {
        // The paper's default 240 s window cannot extrapolate a 60 s epoch.
        let _ = ExperimentConfig::builder(Application::ImageClassification)
            .control_epoch_s(60.0)
            .build();
    }

    #[test]
    fn sub_hour_epochs_and_overrides_reconcile() {
        // A valid sub-hour cadence keeps the default window when it fits.
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .control_epoch_s(600.0)
            .build();
        assert_eq!(cfg.control_epoch_s, 600.0);
        assert_eq!(
            cfg.fidelity,
            Fidelity::RepresentativeWindow { window_s: 240.0 }
        );
        // The fidelity is the window's one setter: the last call wins.
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 60.0 })
            .fidelity(Fidelity::RepresentativeWindow { window_s: 30.0 })
            .build();
        assert_eq!(
            cfg.fidelity,
            Fidelity::RepresentativeWindow { window_s: 30.0 }
        );
        // FullEpoch, with no window to size, is the supported burst path.
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .control_epoch_s(900.0)
            .fidelity(Fidelity::FullEpoch)
            .build();
        assert_eq!(cfg.fidelity, Fidelity::FullEpoch);
    }
}
