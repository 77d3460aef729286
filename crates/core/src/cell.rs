//! One per-epoch cell runtime: the control loop every serving cell runs.
//!
//! A [`CellRuntime`] is one cluster's serving stack — its decision state
//! (carbon monitor, autoscaler, scheduler, live evaluator, scheduler RNG),
//! its serving simulator and boundary carry, its carbon ledger and
//! run-level accumulators, and its [`FaultPlan`]. Each
//! [`CellRuntime::step`] runs one control epoch: reconcile the fleet with
//! the fault plan at the boundary, observe the grid, size the fleet, plan
//! when a trigger fires and fold the scheduler's exploration traffic in,
//! map the faults landing inside the epoch onto DES instance failures,
//! serve (a representative window or the full epoch, per the configured
//! [`Fidelity`]), charge the power of boards held out of the deployment,
//! and feed the observation back to the scheduler.
//!
//! The single-cluster [`crate::experiment::Experiment`] is this runtime
//! plus a synchronized BASE reference, itself a BASE cell of this runtime;
//! each of the multi-region router's regional fleets is this runtime plus
//! a routed traffic weight. Every serving epoch of either therefore
//! accounts energy, carbon and faults identically.

use crate::autoscale::{FleetState, Scaler, ScalerConfig};
use crate::chaos::FaultPlan;
use crate::control::{ControlEpoch, EpochSchedule, Fidelity, WindowPlan};
use crate::eval::DesEvaluator;
use crate::experiment::{ExperimentConfig, HourPoint, InvocationRecord};
use crate::objective::{MeasuredPoint, Objective};
use crate::schedulers::{make_scheduler, Observation, Scheduler, SchedulerCtx, SchemeKind};
use clover_carbon::{CarbonIntensity, CarbonLedger, CarbonMonitor, CarbonTrace, Energy, Staleness};
use clover_mig::SliceType;
use clover_models::{served_weighted_accuracy, ModelFamily, PerfModel};
use clover_serving::{Deployment, InstanceFailure, ServingCarry, ServingSim, WindowMetrics};
use clover_simkit::{LatencyHistogram, SimRng, SimTime};
use clover_telemetry::{Event, Phase, ProfilerHandle, Telemetry};
use clover_workload::{ArrivalProcess, Workload};
use std::sync::Arc;

/// Salt of a cell's serving stream (its simulator's seed is `seed ^ SIM_SALT`).
pub(crate) const SIM_SALT: u64 = 0x11;

/// Run-level accumulators of one cell: everything its epochs served,
/// extrapolated to the epoch under a representative window, with the
/// scheduler's exploration traffic folded in 1:1.
pub struct CellTotals {
    /// Energy and carbon charged to the cell (serving, exploration and
    /// the power of boards held out of the deployment).
    pub ledger: CarbonLedger,
    /// Latency distribution of every request served.
    pub hist: LatencyHistogram,
    /// Requests served per variant ordinal.
    pub per_variant: Vec<f64>,
    /// Requests served.
    pub served_scaled: f64,
    /// Discrete events the cell's DES processed.
    pub sim_events: u64,
    /// Live time charged to optimization, seconds.
    pub optimization_time_s: f64,
    /// GPU-hours the active fleet accumulated.
    pub active_gpu_hours: f64,
}

impl CellTotals {
    /// Empty totals charged under `trace` at the paper's PUE.
    fn new(trace: Arc<CarbonTrace>, n_variants: usize) -> Self {
        CellTotals {
            ledger: CarbonLedger::new(trace),
            hist: LatencyHistogram::for_latency(),
            per_variant: vec![0.0; n_variants],
            served_scaled: 0.0,
            sim_events: 0,
            optimization_time_s: 0.0,
            active_gpu_hours: 0.0,
        }
    }

    /// Folds one measured window in, its counters scaled by `scale`.
    fn fold(&mut self, at: SimTime, w: &WindowMetrics, scale: f64) {
        self.sim_events += w.sim_events;
        self.ledger
            .record_energy_at(at, Energy::from_joules(w.it_energy_j() * scale));
        self.hist.merge(&w.latency_hist);
        for (acc, &n) in self.per_variant.iter_mut().zip(w.per_variant_served.iter()) {
            *acc += n as f64 * scale;
        }
        self.served_scaled += w.served as f64 * scale;
    }
}

/// The run-level figures of one or more cells' [`CellTotals`], the one
/// roll-up of the single-cluster experiment and the multi-region router.
pub struct Rollup {
    /// Operational carbon, grams.
    pub carbon_g: f64,
    /// Requests served.
    pub served_scaled: f64,
    /// Carbon per served request, grams; NaN when nothing was served.
    pub carbon_per_request_g: f64,
    /// IT energy per served request, joules; NaN when nothing was served.
    pub energy_per_request_j: f64,
    /// p95 latency of every request served, seconds; NaN (which fails any
    /// SLA) when nothing was served.
    pub p95_s: f64,
    /// Served-weighted accuracy, percent; the base accuracy when nothing
    /// was served.
    pub accuracy_pct: f64,
    /// Mean GPUs active over the schedule.
    pub mean_active_gpus: f64,
    /// Live time charged to optimization, seconds.
    pub optimization_time_s: f64,
    /// Discrete events simulated.
    pub sim_events: u64,
}

impl Rollup {
    /// Rolls `totals` up over the epochs of `schedule`, summing in slice
    /// (region) order, so a slice of one gives that cell's figures bit for
    /// bit.
    pub fn of(totals: &[&CellTotals], family: &ModelFamily, schedule: &EpochSchedule) -> Rollup {
        let mut hist = LatencyHistogram::for_latency();
        let mut per_variant = vec![0.0f64; family.len()];
        for t in totals {
            hist.merge(&t.hist);
            for (acc, v) in per_variant.iter_mut().zip(&t.per_variant) {
                *acc += v;
            }
        }
        let sum = |f: fn(&CellTotals) -> f64| totals.iter().map(|t| f(t)).sum::<f64>();
        let (carbon_g, served_scaled) =
            (sum(|t| t.ledger.carbon().grams()), sum(|t| t.served_scaled));
        let per_request = |x: f64| {
            if served_scaled > 0.0 {
                x / served_scaled
            } else {
                f64::NAN
            }
        };
        let epochs = f64::from(schedule.count().max(1));
        Rollup {
            carbon_g,
            served_scaled,
            carbon_per_request_g: per_request(carbon_g),
            energy_per_request_j: per_request(sum(|t| t.ledger.it_energy().joules())),
            p95_s: hist.quantile(0.95).unwrap_or(f64::NAN),
            accuracy_pct: served_weighted_accuracy(family, per_variant)
                .unwrap_or(family.accuracy_base()),
            mean_active_gpus: sum(|t| t.active_gpu_hours) / (epochs * schedule.epoch_hours()),
            optimization_time_s: sum(|t| t.optimization_time_s),
            sim_events: totals.iter().map(|t| t.sim_events).sum(),
        }
    }
}

/// What one [`CellRuntime::step`] measured.
pub struct EpochRecord {
    /// The epoch's serving measurement (window counts, not extrapolated).
    pub window: WindowMetrics,
    /// The epoch's timeline entry.
    pub point: HourPoint,
    /// The optimization invocation behind this epoch's plan, if any.
    pub invocation: Option<InvocationRecord>,
}

/// One cluster's per-epoch serving loop (see the module docs).
///
/// All state is owned and all randomness flows from the seeds it was
/// constructed with, so experiments stay byte-identical between serial and
/// parallel grid execution.
pub struct CellRuntime {
    scheme: SchemeKind,
    family: Arc<ModelFamily>,
    perf: PerfModel,
    n_gpus: usize,
    /// Full-epoch fidelity: serve continuously, carrying state across
    /// boundaries.
    continuous: bool,
    epoch_hours: f64,
    window: WindowPlan,
    scheduler: Box<dyn Scheduler>,
    monitor: CarbonMonitor,
    scaler: Scaler,
    evaluator: DesEvaluator,
    /// The scheduler's randomness.
    rng: SimRng,
    /// GPUs serving after the last scaler step.
    active_gpus: usize,
    /// Whether the last served epoch broke the SLA (a re-plan trigger).
    sla_violated: bool,
    sim: ServingSim,
    /// Serving state crossing the last epoch boundary (continuous
    /// full-epoch serving; empty otherwise).
    carry: ServingCarry,
    faults: FaultPlan,
    /// Physical GPUs the cell saw down at the previous boundary; the
    /// per-boundary diff turns the fault plan's down intervals into scaler
    /// fail/repair transitions.
    prev_down: Vec<usize>,
    totals: CellTotals,
}

impl CellRuntime {
    /// Stands the cell up from `cfg` and what its caller derived: the
    /// model family and device model, the carbon trace the cell is charged
    /// under, one BASE GPU's capacity (the autoscaler's sizing unit) and
    /// the evaluator's initial planning rate. Every component is seeded
    /// from `cfg.seed` with its own salt.
    pub fn new(
        cfg: &ExperimentConfig,
        family: Arc<ModelFamily>,
        perf: PerfModel,
        trace: Arc<CarbonTrace>,
        capacity_per_gpu_rps: f64,
        planning_rate_rps: f64,
    ) -> Self {
        let schedule = EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s);
        let initial = Deployment::base(&family, cfg.n_gpus);
        // The search budget is resolved against the cadence once: sub-hour
        // epochs cap the SA's charged live time and iteration budget, the
        // hourly default passes the paper's parameters through untouched.
        let sa = cfg.sa_params();
        let scheduler = make_scheduler(cfg.scheme, &family, cfg.n_gpus, sa);
        let evaluator = DesEvaluator::new(
            family.clone(),
            perf,
            planning_rate_rps,
            initial.clone(),
            cfg.seed ^ 0xE7A1,
        );
        // Under the default Static policy the scaler collapses to the
        // paper's fixed fleet (all GPUs active, zero standby charge).
        let scaler = Scaler::new(ScalerConfig::new(
            cfg.scaling,
            cfg.min_gpus,
            cfg.n_gpus,
            capacity_per_gpu_rps,
            cfg.utilization_target,
        ));
        let mut monitor = CarbonMonitor::new(trace.clone());
        // Everything that will go wrong this run, drawn up front from the
        // seed. Chaos off generates nothing and touches no RNG, so the run
        // is bit-identical to one without the chaos layer.
        let faults = FaultPlan::generate(
            &cfg.chaos,
            cfg.seed,
            cfg.n_gpus,
            schedule.count() as usize,
            cfg.control_epoch_s,
        );
        // Inside a carbon-feed gap the monitor serves last-known-good
        // intensity until the age cap, then falls back blind to its
        // reference. The ledger is unaffected: only the controller's view
        // degrades.
        monitor.set_gaps(faults.carbon_gaps());
        let n_variants = family.len();
        let sim = ServingSim::new(family.clone(), perf, initial, cfg.seed ^ SIM_SALT);
        CellRuntime {
            scheme: cfg.scheme,
            family,
            perf,
            n_gpus: cfg.n_gpus,
            continuous: matches!(cfg.fidelity, Fidelity::FullEpoch),
            epoch_hours: schedule.epoch_hours(),
            window: cfg.fidelity.window_plan(schedule.epoch_len()),
            scheduler,
            monitor,
            active_gpus: scaler.fleet().active,
            scaler,
            evaluator,
            rng: SimRng::new(cfg.seed ^ 0x5C8E),
            sla_violated: false,
            sim,
            carry: ServingCarry::default(),
            faults,
            prev_down: Vec::new(),
            totals: CellTotals::new(trace, n_variants),
        }
    }

    /// Attaches (or detaches) a phase profiler: candidate windows land in
    /// [`Phase::Search`], the serving simulator's seam work in
    /// [`Phase::Carry`]. A no-op on results.
    pub fn set_profiler(&mut self, profiler: Option<ProfilerHandle>) {
        self.evaluator.set_profiler(profiler.clone());
        self.sim.set_profiler(profiler);
    }

    /// The boundary carry: requests queued and in flight at the last epoch
    /// boundary (always empty under a representative window).
    pub fn carry(&self) -> &ServingCarry {
        &self.carry
    }

    /// Mutable access to the boundary carry, for moving requests between
    /// cells at epoch boundaries (the multi-region router migrates queued
    /// work through [`ServingCarry::take_queued_newest`],
    /// [`ServingCarry::absorb_queued`] and
    /// [`ServingCarry::drain_for_migration`]).
    pub fn carry_mut(&mut self) -> &mut ServingCarry {
        &mut self.carry
    }

    /// GPUs actively serving after the last scaler step.
    pub fn active_gpus(&self) -> usize {
        self.active_gpus
    }

    /// The run-level accumulators so far.
    pub fn totals(&self) -> &CellTotals {
        &self.totals
    }

    /// The run-level accumulators, once the cell is done.
    pub(crate) fn into_totals(self) -> CellTotals {
        self.totals
    }

    /// Restarts the serving stream from `seed`, as if built with it.
    pub(crate) fn reseed_serving(&mut self, seed: u64) {
        self.sim.reseed(seed);
    }

    /// Runs one control epoch: plans against `objective` and the demand
    /// `workload` forecasts, serves `arrivals` (anchored at the epoch's
    /// start), and accounts the epoch. Epochs must be stepped in order; a
    /// caller may skip epochs (a dark region) — fault reconciliation diffs
    /// against the last epoch stepped, and the first epoch stepped plans
    /// at start-up whatever its index.
    ///
    /// The decision journal receives one `epoch_begin` and one `scaler`
    /// event per epoch, plus `forecast`, `plan`, `search` (schemes that
    /// report an optimization run) and `reconfig` (non-zero downtime)
    /// events when a control trigger fires. Under chaos it also
    /// receives `fallback` events for degraded carbon data, `fault`/`repair`
    /// events for GPU failures at the boundary and `fault` events for kills
    /// and crashes inside the epoch. The scaler step is timed as
    /// [`Phase::Scaler`], the scheduler invocation as [`Phase::Plan`] and
    /// the serving measurement as [`Phase::Des`]. Telemetry is a strict
    /// overlay: every journal field derives from decision state the loop
    /// computes anyway, so the no-op sink changes no result.
    pub fn step(
        &mut self,
        epoch: &ControlEpoch,
        objective: &Objective,
        workload: &Workload,
        arrivals: &mut dyn ArrivalProcess,
        telemetry: &mut Telemetry,
    ) -> EpochRecord {
        let t = epoch.start;
        let chaos_on = !self.faults.is_empty();
        if chaos_on {
            self.reconcile_faults(epoch, telemetry);
        }
        let (ci, fleet, invocation) = self.begin_epoch(epoch, objective, workload, telemetry);
        self.totals.active_gpu_hours += fleet.active as f64 * self.epoch_hours;
        if chaos_on {
            let failures = self.failures_in(epoch, fleet.active, telemetry);
            if !failures.is_empty() {
                self.sim.set_window_failures(failures);
            }
        }

        // Continuously from the carry, advanced to the closing boundary,
        // or else the representative window; the scope closes before the fold.
        let des = telemetry.scope(Phase::Des);
        let w = if self.continuous {
            let carry = std::mem::take(&mut self.carry);
            let (w, next) = self.sim.run_epoch_continuous(arrivals, epoch.len, carry);
            self.carry = next;
            w
        } else {
            self.sim
                .run_window_with(arrivals, self.window.window, self.window.warmup)
        };
        drop(des);
        self.totals.fold(t, &w, self.window.scale);

        // GPUs the scaler holds out of the deployment still cost power:
        // powered-off boards draw standby watts, warming boards pay the
        // full static floor while they repartition and load models. (With
        // the Static policy both counts are zero and this charge
        // vanishes.) Down boards draw nothing — a failed GPU is off the
        // bus, not on standby — so they are carved out of the off count.
        let power = &self.perf.power;
        let off_powered = fleet.off.saturating_sub(self.scaler.down());
        let overhead_w = off_powered as f64 * power.standby_gpu_w()
            + fleet.warming as f64 * power.gpu_static_w();
        let ledger = &mut self.totals.ledger;
        ledger.record_power(t, epoch.len, overhead_w);
        // Draining boards are the honest scale-down transition cost:
        // still powered while in-flight work empties, admitting nothing.
        // The draw is the static floor plus a fully allocated board's idle
        // residual (one G7 slice) — the retired board's partitioning is no
        // longer tracked, and the full-allocation residual is the
        // conservative bound. Sub-hour epochs shorten exactly this window.
        if fleet.draining > 0 {
            let drain_w =
                fleet.draining as f64 * (power.gpu_static_w() + power.idle_slice_w(SliceType::G7));
            ledger.record_power(t, epoch.len, drain_w);
        }

        self.observe_serving(&w, objective, workload);
        let point = self.hour_point(epoch, objective, ci, fleet, &w);
        EpochRecord {
            window: w,
            point,
            invocation,
        }
    }

    /// Opens `epoch`: observes the grid, sizes the fleet, and — when a
    /// control trigger fires (start-up, carbon drift beyond the monitor
    /// threshold, an SLA violation in the previous epoch, a fleet resize)
    /// — invokes the scheduler for a fresh configuration, folds its
    /// exploration traffic into the totals and deploys it. Returns the
    /// intensity in force, the fleet partition, and the invocation behind
    /// a fresh plan.
    fn begin_epoch(
        &mut self,
        epoch: &ControlEpoch,
        objective: &Objective,
        workload: &Workload,
        telemetry: &mut Telemetry,
    ) -> (CarbonIntensity, FleetState, Option<InvocationRecord>) {
        let t = epoch.start;
        let event = self.monitor.observe(t);
        let ci = event.current;
        // The scaler counts the epochs it has stepped: none yet means this
        // is the cell's first epoch, whatever its index (a region dark at
        // t = 0 first steps later).
        let first_epoch = self.scaler.epochs_stepped() == 0;

        // Chaos scales the demand the scaler sizes against by the epoch's
        // forecast-error factor (`1.0` when chaos is off). The scheduler's
        // planning rate below stays honest: the error model targets
        // capacity sizing, not the configuration search.
        let scaler_scope = telemetry.scope(Phase::Scaler);
        let fleet = self.scaler.step(
            t,
            workload,
            self.faults.forecast_factor(epoch.index as usize),
        );
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
        } else if first_epoch {
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
        // monitor took.
        let fallback = match event.staleness {
            Staleness::Fresh => None,
            Staleness::Stale { age_s } => Some(("stale", age_s)),
            Staleness::Blind { age_s } => Some(("blind", age_s)),
        };
        if let Some((mode, age_s)) = fallback {
            telemetry.emit(
                Event::new("fallback", t)
                    .str("mode", mode)
                    .f64("age_s", age_s)
                    .f64("ci_g_per_kwh", ci.g_per_kwh()),
            );
        }

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

        let Some(cause) = cause else {
            return (ci, fleet, None);
        };
        // Candidates are evaluated at the demand the workload forecasts
        // for this epoch (the constant offered rate under the paper's
        // Poisson workload; floored above zero so the measurement windows
        // stay well-defined when a trace has run dry).
        self.evaluator.rate_rps = workload.planning_rate_at(t);
        telemetry.emit(Event::new("forecast", t).f64("planning_rate_rps", self.evaluator.rate_rps));
        let plan_scope = telemetry.scope(Phase::Plan);
        let decision = self.scheduler.plan(&mut SchedulerCtx {
            family: &self.family,
            perf: &self.perf,
            objective,
            ci,
            now: t,
            active_gpus: self.active_gpus,
            workload,
            evaluator: &mut self.evaluator,
            rng: &mut self.rng,
        });
        drop(plan_scope);
        self.monitor.acknowledge(ci);
        // Exploration traffic is real traffic: fold it into the totals
        // 1:1. Drained unconditionally — a scheme may measure candidates
        // through the evaluator yet return no OptimizationRun, and its
        // charged windows must neither accumulate nor slip to a later
        // epoch's intensity.
        let eval_windows = self.evaluator.take_window_log();
        for w in &eval_windows {
            self.totals.fold(t, w, 1.0);
        }
        let downtime = self.evaluator.apply(decision.deployment.clone());
        let mut ev = Event::new("plan", t)
            .str("scheme", self.scheme.label())
            .str("cause", cause)
            .u64("gpus", self.active_gpus as u64)
            .u64("eval_windows", eval_windows.len() as u64);
        if let Some(note) = decision.note.as_deref() {
            ev = ev.str("note", note);
        }
        telemetry.emit(ev);
        if let Some(run) = decision.run.as_ref() {
            let l = run.ledger;
            telemetry.emit(
                Event::new("search", t)
                    .u64("iterations", u64::from(l.iterations))
                    .u64("accepted", u64::from(l.accepted))
                    .u64("rejected", u64::from(l.rejected))
                    .u64("non_improving", u64::from(l.final_non_improving))
                    .f64("charged_live_s", run.time_spent_s)
                    .f64("budget_s", l.budget_s),
            );
        }
        if !downtime.is_zero() {
            telemetry.emit(Event::new("reconfig", t).f64("downtime_s", downtime.as_secs()));
        }
        self.sim.set_deployment(decision.deployment);
        let invocation = decision.run.map(|run| {
            self.totals.optimization_time_s += run.time_spent_s;
            InvocationRecord {
                at_hours: epoch.start_hours(),
                time_spent_s: run.time_spent_s,
                evals: run.evals,
            }
        });
        (ci, fleet, invocation)
    }

    /// Closes `epoch` with the metrics of its served window: records the
    /// SLA-violation re-invocation trigger (carbon-aware schemes only, per
    /// the paper's Sec. 4.2) and forwards the measurement to the
    /// scheduler's feedback hook.
    fn observe_serving(
        &mut self,
        metrics: &WindowMetrics,
        objective: &Objective,
        workload: &Workload,
    ) {
        // A silent epoch has no measured tail: it must not count as an SLA
        // violation (nor spuriously pass one — `p95_latency_s` is `None`,
        // not 0.0, for zero-served windows).
        self.sla_violated = metrics
            .p95_latency_s()
            .is_some_and(|p| p > objective.l_tail_s)
            && self.scheme.is_carbon_aware();
        self.scheduler.observe(&Observation { metrics, workload });
    }

    /// Chaos, boundary half: reconciles the fleet with the fault plan
    /// *before* the cell plans, so `begin_epoch` sizes and partitions the
    /// surviving fleet. Repairs re-enter through the scaler's warming
    /// state.
    fn reconcile_faults(&mut self, epoch: &ControlEpoch, telemetry: &mut Telemetry) {
        let t = epoch.start;
        let down_now = self.faults.down_at(t.as_secs());
        let failed: Vec<usize> = down_now
            .iter()
            .copied()
            .filter(|g| !self.prev_down.contains(g))
            .collect();
        let repaired: Vec<usize> = self
            .prev_down
            .iter()
            .copied()
            .filter(|g| !down_now.contains(g))
            .collect();
        self.scaler.fail(failed.len());
        self.scaler.repair(repaired.len());
        for (kind, gpus) in [("fault", &failed), ("repair", &repaired)] {
            for &g in gpus {
                telemetry.emit(
                    Event::new(kind, t)
                        .str("kind", "gpu")
                        .u64("gpu", g as u64)
                        .u64("epoch", u64::from(epoch.index)),
                );
            }
        }
        self.prev_down = down_now;
    }

    /// Chaos, serving half: the faults landing *inside* the epoch as DES
    /// instance failures. Under continuous (full-epoch) serving a GPU kill
    /// takes down its instance range at the fault instant — in-flight
    /// work re-queues oldest-first — and a crash takes down one instance.
    /// The representative window gets epoch-granularity fleet effects
    /// only (the boundary diff), since its short window does not span the
    /// epoch it extrapolates. A fully dead fleet is killed at the window's
    /// open on either path: arrivals queue, shed at the bound, and recover
    /// after repair — no scheme gets to deadlock.
    fn failures_in(
        &self,
        epoch: &ControlEpoch,
        active: usize,
        telemetry: &mut Telemetry,
    ) -> Vec<InstanceFailure> {
        let deployment = self.sim.deployment();
        let n_inst = deployment.n_instances();
        if active == 0 {
            return match n_inst {
                0 => Vec::new(),
                _ => vec![InstanceFailure {
                    at_s: 0.0,
                    instances: (0..n_inst as u32).collect(),
                    gpus: deployment.n_gpus() as u32,
                }],
            };
        }
        if !self.continuous {
            return Vec::new();
        }
        let t_s = epoch.start.as_secs();
        let end_s = t_s + epoch.len.as_secs();
        let mut failures = Vec::new();
        // Deployment slot j serves on the j-th lowest alive physical GPU.
        let alive: Vec<usize> = (0..self.n_gpus)
            .filter(|&g| !self.faults.is_down(g, t_s))
            .collect();
        for kill in self.faults.kills_in(t_s, end_s) {
            let Some(slot) = alive
                .iter()
                .take(deployment.n_gpus())
                .position(|&g| g == kill.gpu)
            else {
                continue; // fell on a board outside the deployment
            };
            let slots = deployment.partitioning().slot_range(slot);
            telemetry.emit(
                Event::new("fault", SimTime::from_secs(kill.at_s()))
                    .str("kind", "kill")
                    .u64("gpu", kill.gpu as u64)
                    .u64("instances", slots.len() as u64),
            );
            failures.push(InstanceFailure {
                at_s: kill.at_s() - t_s,
                instances: (slots.start as u32..slots.end as u32).collect(),
                gpus: 1,
            });
        }
        for crash in self.faults.crashes_in(t_s, end_s) {
            if n_inst == 0 {
                break;
            }
            let idx = ((crash.selector * n_inst as f64) as usize).min(n_inst - 1);
            telemetry.emit(
                Event::new("fault", SimTime::from_secs(crash.at_s))
                    .str("kind", "crash")
                    .u64("instance", idx as u64),
            );
            failures.push(InstanceFailure {
                at_s: crash.at_s - t_s,
                instances: vec![idx as u32],
                gpus: 0,
            });
        }
        failures
    }

    /// The epoch's timeline entry. An epoch that served nothing (a dead
    /// fleet, or a trace that ran dry) has no per-request metrics: its
    /// entries stay NaN instead of reaching the objective.
    fn hour_point(
        &self,
        epoch: &ControlEpoch,
        objective: &Objective,
        ci: CarbonIntensity,
        fleet: FleetState,
        w: &WindowMetrics,
    ) -> HourPoint {
        let accuracy_pct = w
            .accuracy_pct(&self.family)
            .unwrap_or(self.family.accuracy_base());
        let energy_per_request_j = w.energy_per_request_j().unwrap_or(f64::NAN);
        let p95_s = w.p95_latency_s().unwrap_or(f64::NAN);
        let (objective_f, carbon_save_pct) = if energy_per_request_j.is_finite() {
            let point = MeasuredPoint {
                accuracy_pct,
                energy_per_request_j,
                p95_latency_s: p95_s,
            };
            (
                objective.f(&point, ci),
                objective.delta_carbon_pct(energy_per_request_j, ci),
            )
        } else {
            (f64::NAN, f64::NAN)
        };
        HourPoint {
            hour: epoch.trace_hour(),
            t_hours: epoch.start_hours(),
            active_gpus: fleet.active as u32,
            ci_g_per_kwh: ci.g_per_kwh(),
            objective_f,
            accuracy_pct,
            p95_s,
            energy_per_request_j,
            carbon_save_pct,
            arrived: w.arrived,
            served: w.served,
            dropped: w.dropped,
            backlog: self.carry.backlog(),
        }
    }
}
