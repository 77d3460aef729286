//! The control plane: epoch cadence, serving-simulation fidelity, and the
//! monitor → scaler → scheduler loop, extracted from the experiment
//! runtime into a first-class API.
//!
//! The paper's methodology hard-wires three distinct cadences to the same
//! hourly clock: the carbon trace's sample period, the control loop's
//! decision period, and the serving simulation's extrapolation period.
//! This module pulls them apart:
//!
//! - A [`ControlEpoch`] is one tick of the control loop. Its length is
//!   configurable ([`crate::experiment::ExperimentConfigBuilder::control_epoch_s`],
//!   e.g. 10 minutes) and independent of the trace: carbon intensity is
//!   still held per *trace hour*, so a sub-hour cadence re-reads the same
//!   intensity until the trace steps. Sub-hour epochs are what let a
//!   reactive autoscaler engage with flash crowds that an hourly loop
//!   sleeps through.
//! - A [`Fidelity`] says how much of each epoch the DES actually serves:
//!   [`Fidelity::RepresentativeWindow`] (the paper's methodology and the
//!   default — simulate a short window, extrapolate counters to the whole
//!   epoch, valid when traffic is stationary within an epoch) or
//!   [`Fidelity::FullEpoch`] (drive the DES over the entire epoch, so
//!   MMPP/flash bursts are actually sampled instead of averaged away).
//! - A [`ControlPlane`] owns the per-experiment decision state — carbon
//!   monitor, autoscaler, scheduler, live evaluator, scheduler RNG — and
//!   exposes the two halves of the loop: [`ControlPlane::begin_epoch`]
//!   (observe the grid, size the fleet, re-plan when a trigger fires) and
//!   [`ControlPlane::observe_serving`] (feed the served window back:
//!   SLA-violation re-invocation state plus the scheduler's
//!   [`crate::schedulers::Scheduler::observe`] hook).
//!
//! The default configuration — hourly epochs, representative window —
//! reproduces the pre-extraction experiment results bit for bit (pinned by
//! `tests/control_plane.rs`). See `docs/control-plane.md`.

use crate::anneal::{OptimizationRun, SaParams};
use crate::autoscale::{FleetState, Scaler};
use crate::eval::DesEvaluator;
use crate::objective::Objective;
use crate::schedulers::{Observation, Scheduler, SchedulerCtx, SchemeKind};
use clover_carbon::{CarbonIntensity, CarbonMonitor, Staleness};
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{Deployment, ServingCarry, ServingSim, WindowMetrics};
use clover_simkit::{SimDuration, SimRng, SimTime};
use clover_telemetry::{Event, Phase, ProfilerHandle, Telemetry};
use clover_workload::{ArrivalProcess, NoisyForecast, Workload};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Histogram buckets for per-invocation charged live search time, seconds
/// (the paper's budget is 300 s at the hourly cadence; epoch-scaled budgets
/// land in the lower buckets).
const SEARCH_TIME_BUCKETS_S: [f64; 7] = [1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0];

/// How much of each control epoch the serving simulator actually runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Simulate a `window_s`-second representative window per epoch and
    /// extrapolate its counters to the whole epoch — the paper's Sec. 5.1
    /// methodology (the system is treated as stationary within an epoch)
    /// and the default.
    RepresentativeWindow {
        /// Simulated window per epoch, seconds.
        window_s: f64,
    },
    /// Drive the DES over the entire epoch, no extrapolation: bursty
    /// arrival processes (MMPP, flash crowds) are sampled end to end
    /// instead of through whatever slice a representative window happens
    /// to catch. ~`epoch/window`× the events of the representative path;
    /// affordable since the allocation-free DES window and the parallel
    /// grid landed.
    FullEpoch,
}

impl Fidelity {
    /// The default representative window, seconds (the paper's 240 s).
    pub const DEFAULT_WINDOW_S: f64 = 240.0;

    /// The paper's default: a 240 s representative window.
    pub fn representative() -> Self {
        Fidelity::RepresentativeWindow {
            window_s: Self::DEFAULT_WINDOW_S,
        }
    }

    /// Short display label (figure legends, CSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::RepresentativeWindow { .. } => "window",
            Fidelity::FullEpoch => "full-epoch",
        }
    }

    /// The measurement plan for one epoch of the given length: what to
    /// simulate, how much warmup precedes measurement, and the factor that
    /// extrapolates window counters to the whole epoch.
    pub fn window_plan(&self, epoch_len: SimDuration) -> WindowPlan {
        match self {
            Fidelity::RepresentativeWindow { window_s } => WindowPlan {
                window: SimDuration::from_secs(*window_s),
                warmup: SimDuration::from_secs((window_s * 0.05).clamp(1.0, 8.0)),
                scale: epoch_len.as_secs() / window_s,
            },
            // The epoch is measured end to end; nothing to extrapolate and
            // no warmup to discard (every burst must be sampled).
            Fidelity::FullEpoch => WindowPlan {
                window: epoch_len,
                warmup: SimDuration::ZERO,
                scale: 1.0,
            },
        }
    }
}

impl Default for Fidelity {
    /// The paper's representative-window methodology.
    fn default() -> Self {
        Fidelity::representative()
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the optimization search's live budget relates to the control
/// cadence.
///
/// The paper's SA budget (5 simulated minutes of charged live time,
/// [`SaParams::time_budget_s`]) is sized for *hourly* re-planning: ~1
/// minute of actual exploration per invocation is noise against a one-hour
/// epoch. Re-plan every two minutes with the same budget and the search
/// can consume the epoch it is planning for — exploration traffic would
/// dominate the traffic it is supposed to optimize. This knob makes the
/// budget cadence-aware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchBudget {
    /// The configured [`SaParams`] are used verbatim at every cadence (the
    /// paper's setup, blind to the epoch length).
    Fixed,
    /// Charged live time shrinks with the cadence ratio — the configured
    /// budget is treated as sized for the hourly loop and scaled by
    /// `epoch / 3600` — but never below `frac` of the epoch (a floor
    /// guaranteeing the search keeps a useful slice of every epoch), and
    /// the non-improving-stop iteration budget shrinks in the same
    /// proportion. At the **hourly** cadence the ratio is 1, so *any*
    /// configured [`SaParams`] pass through untouched (the default 300 s
    /// budget included — the default configuration is bit-identical),
    /// while a 2-minute epoch caps the paper's search at 10 s of charged
    /// live time. Short epochs amortize the search instead of repeating
    /// it: CLOVER's warm start carries the previous plan forward, so each
    /// cheap invocation refines one shared search rather than restarting
    /// it.
    EpochScaled {
        /// Fraction of the epoch the scaled budget never shrinks below.
        frac: f64,
    },
}

impl SearchBudget {
    /// The default budget floor: the paper's 300 s budget over its 3600 s
    /// epoch, so the proportional scaling and the floor agree exactly for
    /// the paper's default parameters.
    pub const DEFAULT_FRAC: f64 = 300.0 / 3600.0;

    /// The default: epoch-scaled with the paper-derived floor.
    pub fn epoch_scaled() -> Self {
        SearchBudget::EpochScaled {
            frac: Self::DEFAULT_FRAC,
        }
    }

    /// Resolves the effective SA parameters for a cadence. Returns `sa`
    /// unchanged whenever the cap does not bind — the hourly cadence in
    /// particular, for *any* configured budget — so existing seeded
    /// results cannot drift.
    pub fn apply(&self, sa: SaParams, control_epoch_s: f64) -> SaParams {
        match *self {
            SearchBudget::Fixed => sa,
            SearchBudget::EpochScaled { frac } => {
                assert!(
                    frac.is_finite() && frac > 0.0 && frac <= 1.0,
                    "search budget fraction must lie in (0, 1], got {frac}"
                );
                // The configured budget is sized for hourly re-planning:
                // scale it by the cadence ratio, floored at `frac` of the
                // epoch. At 3600 s the ratio is 1 and the cap can never
                // bind — a user-enlarged hourly budget is left alone.
                let cap = (sa.time_budget_s * control_epoch_s / 3600.0).max(control_epoch_s * frac);
                if cap >= sa.time_budget_s {
                    return sa;
                }
                let shrink = cap / sa.time_budget_s;
                SaParams {
                    time_budget_s: cap,
                    non_improving_stop: ((f64::from(sa.non_improving_stop) * shrink).ceil() as u32)
                        .max(1),
                    ..sa
                }
            }
        }
    }
}

impl Default for SearchBudget {
    /// Epoch-scaled at the paper-preserving fraction.
    fn default() -> Self {
        SearchBudget::epoch_scaled()
    }
}

/// One epoch's measurement plan (see [`Fidelity::window_plan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPlan {
    /// Span the DES measures.
    pub window: SimDuration,
    /// Warmup simulated (and discarded) before measurement.
    pub warmup: SimDuration,
    /// Factor extrapolating measured counters to the whole epoch (`1` for
    /// [`Fidelity::FullEpoch`]).
    pub scale: f64,
}

/// One tick of the control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEpoch {
    /// Epoch index from the start of the run.
    pub index: u32,
    /// Epoch start on the global clock.
    pub start: SimTime,
    /// Epoch length.
    pub len: SimDuration,
}

impl ControlEpoch {
    /// Epoch start, hours from the start of the run.
    pub fn start_hours(&self) -> f64 {
        self.start.as_hours()
    }

    /// The trace hour containing this epoch's start.
    pub fn trace_hour(&self) -> u32 {
        self.start_hours() as u32
    }
}

/// The run's control cadence: `count` epochs of `epoch_s` seconds each.
///
/// Epoch lengths must evenly divide one hour (validated by the experiment
/// config builder): the carbon trace is hourly, and epochs that straddled
/// trace samples would smear two intensities into one decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSchedule {
    epoch_s: f64,
    /// Epochs per hour (validated integral).
    per_hour: u32,
    count: u32,
}

impl EpochSchedule {
    /// Covers `horizon_hours` with epochs of `epoch_s` seconds (the last
    /// epoch may overshoot a fractional horizon, exactly as the hourly
    /// loop ceiled fractional horizons).
    ///
    /// # Panics
    /// Panics unless `epoch_s` is positive and evenly divides one hour.
    pub fn new(horizon_hours: f64, epoch_s: f64) -> Self {
        let per_hour = per_hour_or_panic(epoch_s);
        assert!(
            horizon_hours > 0.0,
            "epoch schedule: non-positive horizon ({horizon_hours} h)"
        );
        EpochSchedule {
            epoch_s,
            per_hour: per_hour as u32,
            count: (horizon_hours * per_hour).ceil() as u32,
        }
    }

    /// Number of epochs in the schedule.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Epoch length.
    pub fn epoch_len(&self) -> SimDuration {
        SimDuration::from_secs(self.epoch_s)
    }

    /// Epoch length, hours.
    pub fn epoch_hours(&self) -> f64 {
        // Via the validated integral epochs-per-hour so the hourly
        // default is exactly 1.0 (3600/3600), not a rounding neighbor.
        1.0 / f64::from(self.per_hour)
    }

    /// The epochs, in order. Starts are computed as integer trace hour
    /// plus an in-hour fraction — never as `index × epoch_hours` — so an
    /// epoch that opens a trace hour starts at *exactly* that hour for
    /// every valid cadence (`index * (1/n)` rounds past the boundary for
    /// some `n`, which would make the monitor read the previous hour's
    /// intensity and mislabel the timeline).
    pub fn iter(&self) -> impl Iterator<Item = ControlEpoch> + '_ {
        let len = self.epoch_len();
        let hours = self.epoch_hours();
        let per_hour = self.per_hour;
        (0..self.count).map(move |index| {
            let hour = index / per_hour;
            let frac = f64::from(index % per_hour) * hours;
            ControlEpoch {
                index,
                start: SimTime::from_hours(f64::from(hour) + frac),
                len,
            }
        })
    }
}

/// Epochs per hour when `epoch_s` is valid; panics with the builder's
/// contract otherwise.
pub(crate) fn per_hour_or_panic(epoch_s: f64) -> f64 {
    assert!(
        epoch_s.is_finite() && epoch_s > 0.0,
        "control_epoch_s must be positive, got {epoch_s}"
    );
    let per_hour = 3600.0 / epoch_s;
    assert!(
        per_hour >= 1.0 && (per_hour - per_hour.round()).abs() < 1e-9,
        "control_epoch_s ({epoch_s} s) must evenly divide one hour: the carbon trace is hourly, \
         and a cadence that straddles trace samples would smear two intensities into one decision \
         (use e.g. 600, 900, 1200, 1800 or 3600 seconds)"
    );
    per_hour.round()
}

/// Read-only environment the control plane plans within: the experiment's
/// derived model family, hardware model, objective and workload.
pub struct PlaneEnv<'a> {
    /// The application's model family.
    pub family: &'a ModelFamily,
    /// Hardware performance model.
    pub perf: &'a PerfModel,
    /// The objective (λ, baselines, SLA).
    pub objective: &'a Objective,
    /// The offered workload (generator and forecast).
    pub workload: &'a Workload,
}

/// What [`ControlPlane::begin_epoch`] decided for one epoch.
pub struct EpochPlan {
    /// Carbon intensity in force this epoch (held per trace hour).
    pub ci: CarbonIntensity,
    /// The fleet partition to run with.
    pub fleet: FleetState,
    /// A new configuration to serve with, when (re)planning happened this
    /// epoch; `None` keeps the current one.
    pub deployment: Option<Deployment>,
    /// The optimization run behind the plan, for schemes that search
    /// online (charged time, eval records).
    pub run: Option<OptimizationRun>,
    /// Live measurement windows the evaluator charged while searching —
    /// exploration traffic the caller must fold into the run totals 1:1.
    pub eval_windows: Vec<WindowMetrics>,
}

/// The per-experiment decision loop: carbon monitor, autoscaler, scheduler
/// and live evaluator behind one stepped interface.
///
/// Drive it as `begin_epoch` → serve the epoch (at the configured
/// [`Fidelity`]) → `observe_serving`, once per [`ControlEpoch`], in order.
/// All state is owned and all randomness flows from the seeds it was
/// constructed with, so experiments stay byte-identical between serial and
/// parallel grid execution.
pub struct ControlPlane {
    scheme: SchemeKind,
    scheduler: Box<dyn Scheduler>,
    monitor: CarbonMonitor,
    scaler: Scaler,
    evaluator: DesEvaluator,
    rng: SimRng,
    active_gpus: usize,
    sla_violated: bool,
    /// Multiplier the chaos layer applies to every demand the scaler
    /// reads this epoch (`1.0` — the default — is an honest forecast and
    /// takes the plain [`clover_workload::DemandForecast`] path).
    forecast_factor: f64,
    /// Serving state crossing the last epoch boundary (continuous
    /// full-epoch serving; empty otherwise). Owned here so the queue and
    /// in-flight work survive the epoch loop exactly like the rest of the
    /// decision state does.
    carry: ServingCarry,
}

impl ControlPlane {
    /// Assembles a control plane around `scheme`'s `scheduler`; the
    /// scaler's current fleet is taken as the initially active one.
    pub fn new(
        scheme: SchemeKind,
        scheduler: Box<dyn Scheduler>,
        monitor: CarbonMonitor,
        scaler: Scaler,
        evaluator: DesEvaluator,
        rng: SimRng,
    ) -> Self {
        let active_gpus = scaler.fleet().active;
        ControlPlane {
            scheme,
            scheduler,
            monitor,
            scaler,
            evaluator,
            rng,
            active_gpus,
            sla_violated: false,
            forecast_factor: 1.0,
            carry: ServingCarry::default(),
        }
    }

    /// Sets the forecast-error factor the next [`ControlPlane::begin_epoch`]
    /// feeds the scaler (chaos layer). Must be finite and positive; `1.0`
    /// restores the honest forecast.
    pub fn set_forecast_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "non-positive forecast factor {factor}"
        );
        self.forecast_factor = factor;
    }

    /// Declares carbon-feed outage windows to the monitor (chaos layer):
    /// inside a gap the monitor serves last-known-good intensity until
    /// `age_cap`, then falls back blind to its reference. The carbon
    /// *ledger* is unaffected — only the controller's view degrades.
    pub fn set_carbon_gaps(&mut self, gaps: Vec<(SimTime, SimTime)>, age_cap: SimDuration) {
        self.monitor.set_gaps(gaps, age_cap);
    }

    /// Removes `n` failed GPUs from the fleet, effective immediately
    /// (their serving instances are killed separately, in the DES).
    /// Returns how many boards actually left. See [`Scaler::fail`].
    pub fn fleet_fail(&mut self, n: usize) -> usize {
        self.scaler.fail(n)
    }

    /// Returns `n` repaired GPUs through the scaler's warming state.
    /// Returns how many boards actually came back. See [`Scaler::repair`].
    pub fn fleet_repair(&mut self, n: usize) -> usize {
        self.scaler.repair(n)
    }

    /// Failed GPUs currently out of the fleet.
    pub fn gpus_down(&self) -> usize {
        self.scaler.down()
    }

    /// Serves one epoch **continuously**: the simulator is restored from
    /// the carry left at the previous epoch's boundary, driven for the
    /// whole epoch, and snapshotted again — one unbroken day instead of a
    /// cold start per epoch (the [`Fidelity::FullEpoch`] serving path).
    /// The new boundary snapshot replaces the old one; inspect it with
    /// [`ControlPlane::backlog`].
    pub fn serve_continuous(
        &mut self,
        sim: &mut ServingSim,
        arrivals: &mut dyn ArrivalProcess,
        epoch_len: SimDuration,
    ) -> WindowMetrics {
        let carry = std::mem::take(&mut self.carry);
        let (metrics, next) = sim.run_epoch_continuous(arrivals, epoch_len, carry);
        self.carry = next;
        metrics
    }

    /// Requests inside the serving system (queued + in-flight) at the last
    /// epoch boundary served through [`ControlPlane::serve_continuous`].
    pub fn backlog(&self) -> u64 {
        self.carry.backlog()
    }

    /// The boundary carry itself (queued/in-flight split, not just the
    /// total) — what the multi-region router snapshots when computing
    /// routing weights and migration targets.
    pub fn carry(&self) -> &ServingCarry {
        &self.carry
    }

    /// Mutable access to the boundary carry, for epoch-boundary request
    /// migration (the multi-region router moves queued work between
    /// clusters through [`ServingCarry::take_queued_newest`] /
    /// [`ServingCarry::absorb_queued`] / [`ServingCarry::drain_for_migration`]).
    /// Only meaningful between a [`ControlPlane::serve_continuous`] call
    /// and the next — mutating it mid-epoch has no target to land on.
    pub fn carry_mut(&mut self) -> &mut ServingCarry {
        &mut self.carry
    }

    /// Opens `epoch`: observes the grid, sizes the fleet, and — when a
    /// control trigger fires (start-up, carbon drift beyond the monitor
    /// threshold, an SLA violation in the previous epoch, a fleet resize)
    /// — invokes the scheduler for a fresh configuration.
    ///
    /// Equivalent to [`ControlPlane::begin_epoch_with`] against the no-op
    /// telemetry sink.
    pub fn begin_epoch(&mut self, epoch: &ControlEpoch, env: &PlaneEnv<'_>) -> EpochPlan {
        self.begin_epoch_with(epoch, env, &mut Telemetry::disabled())
    }

    /// Attaches (or detaches) a phase profiler to the live evaluator, so
    /// the candidate measurements a scheduler charges inside
    /// [`Scheduler::plan`] are timed as [`Phase::Search`] — nested within
    /// the [`Phase::Plan`] scope [`ControlPlane::begin_epoch_with`] opens
    /// around the whole invocation.
    pub fn set_profiler(&mut self, profiler: Option<ProfilerHandle>) {
        self.evaluator.set_profiler(profiler);
    }

    /// [`ControlPlane::begin_epoch`] with a telemetry sink.
    ///
    /// The decision journal receives one `epoch_begin` and one `scaler`
    /// event per epoch, plus `forecast`, `plan`, `search` (schemes that
    /// report an optimization run) and `reconfig` (non-zero downtime)
    /// events when a control trigger fires; the search ledger also lands in
    /// the metric registry as per-scheme counters. The scaler step is timed
    /// as [`Phase::Scaler`] and the scheduler invocation as
    /// [`Phase::Plan`]. Telemetry is a strict overlay: every journal field
    /// derives from decision state the loop computes anyway, so with the
    /// no-op sink this method *is* the plain `begin_epoch`, bit for bit.
    pub fn begin_epoch_with(
        &mut self,
        epoch: &ControlEpoch,
        env: &PlaneEnv<'_>,
        telemetry: &mut Telemetry,
    ) -> EpochPlan {
        let t = epoch.start;
        let event = self.monitor.observe(t);
        let ci = event.current;

        let scaler_scope = telemetry.scope(Phase::Scaler);
        let fleet = if self.forecast_factor == 1.0 {
            self.scaler.step(t, &env.workload.forecast())
        } else {
            // Chaos: the scaler sizes against a biased view of demand. It
            // cannot tell the difference — that is the failure mode under
            // study. The scheduler's planning rate below stays honest; the
            // error model targets capacity sizing, not the configuration
            // search.
            let noisy = NoisyForecast::new(env.workload.forecast(), self.forecast_factor);
            self.scaler.step(t, &noisy)
        };
        drop(scaler_scope);
        let fleet_changed = fleet.active != self.active_gpus;
        self.active_gpus = fleet.active;

        // Why the scheduler runs this epoch (`None`: keep the current
        // configuration). Priority order mirrors the trigger condition.
        // A fully dead fleet plans nothing: there is no hardware to
        // partition, arrivals queue (and shed) in the serving layer, and
        // the first epoch with survivors replans via `fleet-resize`.
        let cause = if fleet.active == 0 {
            None
        } else if epoch.index == 0 {
            Some("startup")
        } else if event.triggered {
            Some("carbon-drift")
        } else if self.sla_violated {
            Some("sla-violation")
        } else if fleet_changed {
            Some("fleet-resize")
        } else {
            None
        };

        // Degraded carbon data is evidence: journal the fallback the
        // monitor took and count it, per mode.
        let fallback = match event.staleness {
            Staleness::Fresh => None,
            Staleness::Stale { age_s } => Some(("stale", age_s)),
            Staleness::Blind { age_s } => Some(("blind", age_s)),
        };
        if let Some((mode, age_s)) = fallback {
            if telemetry.journal_mut().is_some() {
                telemetry.emit(
                    Event::new("fallback", t)
                        .str("mode", mode)
                        .f64("age_s", age_s)
                        .f64("ci_g_per_kwh", ci.g_per_kwh()),
                );
            }
            if let Some(m) = telemetry.metrics_mut() {
                m.counter_add("clover_fault_fallback_epochs_total", &[("mode", mode)], 1);
            }
        }

        if telemetry.journal_mut().is_some() {
            telemetry.emit(
                Event::new("epoch_begin", t)
                    .u64("epoch", u64::from(epoch.index))
                    .u64("trace_hour", u64::from(epoch.trace_hour()))
                    .f64("ci_g_per_kwh", ci.g_per_kwh())
                    .u64("active_gpus", self.active_gpus as u64),
            );
            telemetry.emit(
                Event::new("scaler", t)
                    .str("reason", self.scaler.last_reason().label())
                    .u64("active", fleet.active as u64)
                    .u64("warming", fleet.warming as u64)
                    .u64("draining", fleet.draining as u64)
                    .u64("off", fleet.off as u64),
            );
        }

        let mut plan = EpochPlan {
            ci,
            fleet,
            deployment: None,
            run: None,
            eval_windows: Vec::new(),
        };
        if let Some(cause) = cause {
            // Candidates are evaluated at the demand the workload forecasts
            // for this epoch (the constant offered rate under the paper's
            // Poisson workload; floored above zero so the measurement
            // windows stay well-defined when a trace has run dry).
            self.evaluator.rate_rps = env.workload.planning_rate_at(t);
            if telemetry.journal_mut().is_some() {
                telemetry.emit(
                    Event::new("forecast", t).f64("planning_rate_rps", self.evaluator.rate_rps),
                );
            }
            let plan_scope = telemetry.scope(Phase::Plan);
            let decision = self.scheduler.plan(&mut SchedulerCtx {
                family: env.family,
                perf: env.perf,
                objective: env.objective,
                ci,
                now: t,
                active_gpus: self.active_gpus,
                workload: env.workload,
                evaluator: &mut self.evaluator,
                rng: &mut self.rng,
            });
            drop(plan_scope);
            self.monitor.acknowledge(ci);
            plan.run = decision.run;
            // Exploration traffic is real traffic: hand it to the caller
            // to fold into the run totals 1:1. Drained unconditionally —
            // a scheme may measure candidates through the evaluator yet
            // return no OptimizationRun, and its charged windows must
            // neither accumulate nor slip to a later epoch's intensity.
            plan.eval_windows = self.evaluator.take_window_log();
            let downtime = self.evaluator.apply(decision.deployment.clone());
            if telemetry.journal_mut().is_some() {
                let mut ev = Event::new("plan", t)
                    .str("scheme", self.scheme.label())
                    .str("cause", cause)
                    .u64("gpus", self.active_gpus as u64)
                    .u64("eval_windows", plan.eval_windows.len() as u64);
                if let Some(note) = decision.note.as_deref() {
                    ev = ev.str("note", note);
                }
                telemetry.emit(ev);
                if let Some(run) = plan.run.as_ref() {
                    let l = run.ledger;
                    telemetry.emit(
                        Event::new("search", t)
                            .u64("iterations", u64::from(l.iterations))
                            .u64("accepted", u64::from(l.accepted))
                            .u64("rejected", u64::from(l.rejected))
                            .u64("non_improving", u64::from(l.final_non_improving))
                            .f64("charged_live_s", l.charged_live_s)
                            .f64("budget_s", l.budget_s),
                    );
                }
                if !downtime.is_zero() {
                    telemetry.emit(Event::new("reconfig", t).f64("downtime_s", downtime.as_secs()));
                }
            }
            if let Some(run) = plan.run.as_ref() {
                let l = run.ledger;
                if let Some(m) = telemetry.metrics_mut() {
                    let labels: &[(&str, &str)] = &[("scheme", self.scheme.label())];
                    m.counter_add("clover_plan_invocations_total", labels, 1);
                    m.counter_add(
                        "clover_search_iterations_total",
                        labels,
                        u64::from(l.iterations),
                    );
                    m.counter_add(
                        "clover_search_accepted_total",
                        labels,
                        u64::from(l.accepted),
                    );
                    m.counter_add(
                        "clover_search_rejected_total",
                        labels,
                        u64::from(l.rejected),
                    );
                    m.gauge_set("clover_search_budget_seconds", labels, l.budget_s);
                    m.histogram_observe(
                        "clover_search_charged_live_seconds",
                        labels,
                        &SEARCH_TIME_BUCKETS_S,
                        l.charged_live_s,
                    );
                }
            }
            plan.deployment = Some(decision.deployment);
        }
        plan
    }

    /// Closes `epoch` with the metrics of its served window: records the
    /// SLA-violation re-invocation trigger (carbon-aware schemes only, per
    /// the paper's Sec. 4.2) and forwards the measurement to the
    /// scheduler's feedback hook.
    pub fn observe_serving(
        &mut self,
        epoch: &ControlEpoch,
        metrics: &WindowMetrics,
        env: &PlaneEnv<'_>,
    ) {
        // A silent epoch has no measured tail: it must not count as an SLA
        // violation (nor spuriously pass one — `p95_latency_s` is `None`,
        // not 0.0, for zero-served windows).
        self.sla_violated = metrics
            .p95_latency_s
            .is_some_and(|p| p > env.objective.l_tail_s)
            && self.scheme.is_carbon_aware();
        self.scheduler.observe(&Observation {
            metrics,
            at: epoch.start,
            active_gpus: self.active_gpus,
            workload: env.workload,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_schedule_matches_the_legacy_loop() {
        let s = EpochSchedule::new(48.0, 3600.0);
        assert_eq!(s.count(), 48);
        assert_eq!(s.epoch_hours(), 1.0);
        let epochs: Vec<ControlEpoch> = s.iter().collect();
        assert_eq!(epochs.len(), 48);
        assert_eq!(epochs[0].start, SimTime::ZERO);
        assert_eq!(epochs[7].start, SimTime::from_hours(7.0));
        assert_eq!(epochs[7].trace_hour(), 7);
        // Fractional horizons ceil, exactly like the hourly loop did.
        assert_eq!(EpochSchedule::new(5.5, 3600.0).count(), 6);
    }

    #[test]
    fn sub_hour_schedule_subdivides_the_hour() {
        let s = EpochSchedule::new(2.0, 600.0);
        assert_eq!(s.count(), 12);
        assert!((s.epoch_hours() - 1.0 / 6.0).abs() < 1e-15);
        let epochs: Vec<ControlEpoch> = s.iter().collect();
        assert_eq!(epochs[6].start, SimTime::from_hours(1.0));
        assert_eq!(epochs[5].trace_hour(), 0);
        assert_eq!(epochs[6].trace_hour(), 1);
        assert_eq!(epochs[11].len, SimDuration::from_secs(600.0));
    }

    #[test]
    fn hour_boundaries_are_exact_for_every_valid_cadence() {
        // Every divisor of 3600 is a legal cadence; the epoch opening each
        // trace hour must start at exactly that hour (`index × (1/n)`
        // arithmetic drifts below the boundary for some n, e.g. n = 49 on
        // another divisor set — the start is built from the integer hour
        // instead). Tolerance-accepted near-divisors snap the same way.
        let divisors = (1..=3600u32).filter(|d| 3600 % d == 0);
        for per_hour in divisors.map(|d| 3600 / d) {
            let s = EpochSchedule::new(3.0, 3600.0 / f64::from(per_hour));
            for epoch in s.iter() {
                if epoch.index % per_hour == 0 {
                    let hour = epoch.index / per_hour;
                    assert_eq!(
                        epoch.start,
                        SimTime::from_hours(f64::from(hour)),
                        "cadence {per_hour}/h: epoch {} misses hour {hour}",
                        epoch.index
                    );
                    assert_eq!(epoch.trace_hour(), hour);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "evenly divide one hour")]
    fn ragged_epoch_rejected() {
        let _ = EpochSchedule::new(2.0, 700.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_epoch_rejected() {
        let _ = EpochSchedule::new(2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "evenly divide one hour")]
    fn epoch_beyond_an_hour_rejected() {
        // Multi-hour epochs would straddle trace samples just the same.
        let _ = EpochSchedule::new(4.0, 7200.0);
    }

    #[test]
    fn representative_plan_reproduces_the_paper_methodology() {
        let f = Fidelity::RepresentativeWindow { window_s: 240.0 };
        let p = f.window_plan(SimDuration::from_hours(1.0));
        assert_eq!(p.window, SimDuration::from_secs(240.0));
        assert_eq!(p.warmup, SimDuration::from_secs(8.0));
        assert_eq!(p.scale, 3600.0 / 240.0);
        // Short windows clamp the warmup from below.
        let q = Fidelity::RepresentativeWindow { window_s: 10.0 }
            .window_plan(SimDuration::from_secs(600.0));
        assert_eq!(q.warmup, SimDuration::from_secs(1.0));
        assert_eq!(q.scale, 60.0);
    }

    #[test]
    fn full_epoch_plan_measures_everything() {
        let p = Fidelity::FullEpoch.window_plan(SimDuration::from_secs(600.0));
        assert_eq!(p.window, SimDuration::from_secs(600.0));
        assert_eq!(p.warmup, SimDuration::ZERO);
        assert_eq!(p.scale, 1.0);
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Fidelity::default(), Fidelity::representative());
        assert_eq!(Fidelity::default().label(), "window");
        assert_eq!(format!("{}", Fidelity::FullEpoch), "full-epoch");
    }

    #[test]
    fn epoch_scaled_budget_keeps_the_hourly_default_and_caps_short_epochs() {
        let sa = SaParams::default();
        let budget = SearchBudget::default();
        // At the hourly cadence the scaling ratio is 1: parameters come
        // back untouched — the paper's defaults *and* a user-enlarged
        // budget — so pre-existing seeded results cannot drift.
        assert_eq!(budget.apply(sa, 3600.0), sa);
        let enlarged = SaParams {
            time_budget_s: 600.0,
            ..sa
        };
        assert_eq!(budget.apply(enlarged, 3600.0), enlarged);
        // Sub-hour, the enlarged budget scales proportionally too.
        assert_eq!(budget.apply(enlarged, 120.0).time_budget_s, 20.0);
        assert_eq!(SearchBudget::Fixed.apply(sa, 120.0), sa);
        // Sub-hour epochs shrink both the charged-time and the iteration
        // budget proportionally.
        let short = budget.apply(sa, 120.0);
        assert_eq!(short.time_budget_s, 10.0);
        assert_eq!(short.non_improving_stop, 1);
        let mid = budget.apply(sa, 1200.0);
        assert_eq!(mid.time_budget_s, 100.0);
        assert_eq!(mid.non_improving_stop, 2);
        // Cooling schedule itself is untouched.
        assert_eq!(mid.t0, sa.t0);
        assert_eq!(mid.cooling, sa.cooling);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn oversized_budget_fraction_rejected() {
        let _ = SearchBudget::EpochScaled { frac: 1.5 }.apply(SaParams::default(), 60.0);
    }
}
