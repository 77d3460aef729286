//! One per-epoch cell runtime: the control loop every serving cell runs.
//!
//! A [`CellRuntime`] is one cluster's serving stack — its
//! [`ControlPlane`] (monitor, autoscaler, scheduler, live evaluator), its
//! serving simulator, its carbon ledger and run-level accumulators, and
//! its [`FaultPlan`]. Each [`CellRuntime::step`] runs one control epoch:
//! reconcile the fleet with the fault plan at the boundary, plan, fold the
//! scheduler's exploration traffic in, map the faults landing inside the
//! epoch onto DES instance failures, serve (a representative window or the
//! full epoch, per the configured [`Fidelity`]), charge the power of
//! boards held out of the deployment, and feed the observation back to the
//! plane.
//!
//! The single-cluster [`crate::experiment::Experiment`] is this runtime
//! plus a synchronized BASE reference; each of the multi-region router's
//! regional fleets is this runtime plus a routed traffic weight. Both
//! therefore account energy, carbon and faults identically.

use crate::autoscale::{FleetState, Scaler, ScalerConfig};
use crate::chaos::FaultPlan;
use crate::control::{ControlEpoch, ControlPlane, EpochSchedule, Fidelity, PlaneEnv, WindowPlan};
use crate::eval::DesEvaluator;
use crate::experiment::{ExperimentConfig, HourPoint, InvocationRecord};
use crate::objective::MeasuredPoint;
use crate::schedulers::{make_scheduler, SchemeKind};
use clover_carbon::{CarbonIntensity, CarbonLedger, CarbonMonitor, CarbonTrace, Energy, Pue};
use clover_mig::SliceType;
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{Deployment, InstanceFailure, ServingCarry, ServingSim, WindowMetrics};
use clover_simkit::{LatencyHistogram, SimDuration, SimRng, SimTime};
use clover_telemetry::{Event, Phase, ProfilerHandle, Telemetry};
use clover_workload::ArrivalProcess;
use std::sync::Arc;

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
    pub(crate) fn new(trace: Arc<CarbonTrace>, n_variants: usize) -> Self {
        CellTotals {
            ledger: CarbonLedger::new(trace, Pue::PAPER_DEFAULT),
            hist: LatencyHistogram::for_latency(),
            per_variant: vec![0.0; n_variants],
            served_scaled: 0.0,
            sim_events: 0,
            optimization_time_s: 0.0,
            active_gpu_hours: 0.0,
        }
    }

    /// Folds one measured window in, its counters scaled by `scale`.
    pub(crate) fn fold(&mut self, at: SimTime, w: &WindowMetrics, scale: f64) {
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

/// What one [`CellRuntime::step`] measured.
pub struct EpochRecord {
    /// The epoch's serving measurement (window counts, not extrapolated).
    pub window: WindowMetrics,
    /// The epoch's timeline entry.
    pub point: HourPoint,
    /// The optimization invocation behind this epoch's plan, if any.
    pub invocation: Option<InvocationRecord>,
    /// The fleet partition the epoch ran with.
    pub fleet: FleetState,
}

/// One cluster's per-epoch serving loop (see the module docs).
pub struct CellRuntime {
    scheme: SchemeKind,
    n_gpus: usize,
    /// Full-epoch fidelity: serve continuously, carrying state across
    /// boundaries.
    continuous: bool,
    epoch_hours: f64,
    window: WindowPlan,
    plane: ControlPlane,
    sim: ServingSim,
    faults: FaultPlan,
    /// Physical GPUs the plane saw down at the previous boundary; the
    /// per-boundary diff turns the fault plan's down intervals into scaler
    /// fail/repair transitions.
    prev_down: Vec<usize>,
    totals: CellTotals,
}

impl CellRuntime {
    /// Stands the cell up from `cfg` and what its caller derived: the
    /// model family and device model, the carbon trace the cell is charged
    /// under, one BASE GPU's capacity (the autoscaler's sizing unit), the
    /// evaluator's initial planning rate, and the worker-thread cap of the
    /// sharded continuous engine. Every component is seeded from
    /// `cfg.seed` with its own salt.
    pub fn new(
        cfg: &ExperimentConfig,
        family: Arc<ModelFamily>,
        perf: PerfModel,
        trace: Arc<CarbonTrace>,
        capacity_per_gpu_rps: f64,
        planning_rate_rps: f64,
        shard_threads: Option<usize>,
    ) -> Self {
        let schedule = EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s);
        let initial = Deployment::base(&family, cfg.n_gpus);
        // The search budget is resolved against the cadence once: sub-hour
        // epochs cap the SA's charged live time and iteration budget, the
        // hourly default passes the paper's parameters through untouched.
        let sa = cfg.search_budget.apply(cfg.sa, cfg.control_epoch_s);
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
        let mut scaler_cfg =
            ScalerConfig::new(cfg.scaling, cfg.min_gpus, cfg.n_gpus, capacity_per_gpu_rps);
        scaler_cfg.target_utilization = cfg.utilization_target;
        let monitor = CarbonMonitor::new(trace.clone(), CarbonMonitor::DEFAULT_THRESHOLD);
        let rng = SimRng::new(cfg.seed ^ 0x5C8E);
        let mut plane = ControlPlane::new(
            cfg.scheme,
            scheduler,
            monitor,
            Scaler::new(scaler_cfg),
            evaluator,
            rng,
        );
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
        plane.set_carbon_gaps(
            faults.carbon_gaps(),
            SimDuration::from_secs(CarbonMonitor::DEFAULT_AGE_CAP_S),
        );
        let n_variants = family.len();
        let mut sim = ServingSim::new(family, perf, initial, cfg.seed ^ 0x11);
        sim.set_intra_epoch_shards(cfg.des_shards);
        sim.set_shard_threads(shard_threads);
        CellRuntime {
            scheme: cfg.scheme,
            n_gpus: cfg.n_gpus,
            continuous: matches!(cfg.fidelity, Fidelity::FullEpoch),
            epoch_hours: schedule.epoch_hours(),
            window: cfg.fidelity.window_plan(schedule.epoch_len()),
            plane,
            sim,
            faults,
            prev_down: Vec::new(),
            totals: CellTotals::new(trace, n_variants),
        }
    }

    /// Attaches (or detaches) a phase profiler: candidate windows land in
    /// [`Phase::Search`], the serving simulator's seam work in
    /// [`Phase::Carry`]. A no-op on results.
    pub fn set_profiler(&mut self, profiler: Option<ProfilerHandle>) {
        self.plane.set_profiler(profiler.clone());
        self.sim.set_profiler(profiler);
    }

    /// The control plane (backlog and boundary carry included).
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// The boundary carry, for moving requests between cells at epoch
    /// boundaries (see [`ControlPlane::carry_mut`]).
    pub fn carry_mut(&mut self) -> &mut ServingCarry {
        self.plane.carry_mut()
    }

    /// The run-level accumulators so far.
    pub fn totals(&self) -> &CellTotals {
        &self.totals
    }

    /// Consumes the cell, returning its run-level accumulators.
    pub fn into_totals(self) -> CellTotals {
        self.totals
    }

    /// Runs one control epoch: plans against `env`, serves `arrivals`
    /// (anchored at the epoch's start), and accounts the epoch. Epochs
    /// must be stepped in order; a caller may skip epochs (a dark region)
    /// — fault reconciliation diffs against the last epoch stepped.
    ///
    /// Journals `fault`/`repair` events for GPU failures at the boundary
    /// and `fault` events for kills and crashes inside the epoch, besides
    /// the plane's own events; the serving measurement is timed as
    /// [`Phase::Des`].
    pub fn step(
        &mut self,
        epoch: &ControlEpoch,
        env: &PlaneEnv<'_>,
        arrivals: &mut dyn ArrivalProcess,
        telemetry: &mut Telemetry,
    ) -> EpochRecord {
        let t = epoch.start;
        let chaos_on = !self.faults.is_empty();
        if chaos_on {
            self.reconcile_faults(epoch, telemetry);
        }
        let plan = self.plane.begin_epoch_with(epoch, env, telemetry);
        let (ci, fleet) = (plan.ci, plan.fleet);
        let totals = &mut self.totals;
        totals.active_gpu_hours += fleet.active as f64 * self.epoch_hours;
        let invocation = plan.run.map(|run| {
            totals.optimization_time_s += run.time_spent_s;
            InvocationRecord {
                at_hours: epoch.start_hours(),
                time_spent_s: run.time_spent_s,
                evals: run.evals,
            }
        });
        // Exploration traffic is real traffic: fold it in 1:1 — also for
        // schemes that measure candidates without reporting an
        // optimization run (the windows were still served live).
        for w in &plan.eval_windows {
            totals.fold(t, w, 1.0);
        }
        if let Some(deployment) = plan.deployment {
            self.sim.set_deployment(deployment);
        }
        if chaos_on {
            let failures = self.failures_in(epoch, fleet.active, telemetry);
            if !failures.is_empty() {
                self.sim.set_window_failures(failures);
            }
        }

        let wp = self.window;
        let des_scope = telemetry.scope(Phase::Des);
        let w = if self.continuous {
            self.plane
                .serve_continuous(&mut self.sim, arrivals, epoch.len)
        } else {
            self.sim.run_window_with(arrivals, wp.window, wp.warmup)
        };
        drop(des_scope);
        self.totals.fold(t, &w, wp.scale);

        // GPUs the scaler holds out of the deployment still cost power:
        // powered-off boards draw standby watts, warming boards pay the
        // full static floor while they repartition and load models. (With
        // the Static policy both counts are zero and this charge
        // vanishes.) Down boards draw nothing — a failed GPU is off the
        // bus, not on standby — so they are carved out of the off count.
        let power = &env.perf.power;
        let off_powered = fleet.off.saturating_sub(self.plane.gpus_down());
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

        self.plane.observe_serving(epoch, &w, env);
        if chaos_on {
            if let Some(m) = telemetry.metrics_mut() {
                let labels: &[(&str, &str)] = &[("scheme", self.scheme.label())];
                m.counter_add("clover_fault_kills_total", labels, w.fault_kills);
                m.counter_add("clover_fault_requeued_total", labels, w.fault_requeued);
            }
        }
        let point = self.hour_point(epoch, env, ci, fleet, &w);
        EpochRecord {
            window: w,
            point,
            invocation,
            fleet,
        }
    }

    /// Chaos, boundary half: reconciles the fleet with the fault plan
    /// *before* the plane plans, so `begin_epoch` sizes and partitions the
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
        self.plane.fleet_fail(failed.len());
        self.plane.fleet_repair(repaired.len());
        self.plane
            .set_forecast_factor(self.faults.forecast_factor(epoch.index as usize));
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
        if let Some(m) = telemetry.metrics_mut() {
            let labels: &[(&str, &str)] = &[("scheme", self.scheme.label())];
            if !failed.is_empty() {
                m.counter_add(
                    "clover_fault_gpu_failures_total",
                    labels,
                    failed.len() as u64,
                );
            }
            if !repaired.is_empty() {
                m.counter_add(
                    "clover_fault_gpu_repairs_total",
                    labels,
                    repaired.len() as u64,
                );
            }
            m.gauge_set("clover_fault_gpus_down", labels, down_now.len() as f64);
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
        // Deployment slot j serves on the j-th lowest alive physical GPU;
        // instances are flat in GPU order, so prefix sums over the per-GPU
        // slice counts give each slot's instance range.
        let mut offsets = vec![0u32];
        for c in deployment.partitioning().configs() {
            offsets.push(offsets.last().expect("starts at 0") + c.num_slices() as u32);
        }
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
            telemetry.emit(
                Event::new("fault", SimTime::from_secs(kill.at_s()))
                    .str("kind", "kill")
                    .u64("gpu", kill.gpu as u64)
                    .u64("instances", u64::from(offsets[slot + 1] - offsets[slot])),
            );
            failures.push(InstanceFailure {
                at_s: kill.at_s() - t_s,
                instances: (offsets[slot]..offsets[slot + 1]).collect(),
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
        env: &PlaneEnv<'_>,
        ci: CarbonIntensity,
        fleet: FleetState,
        w: &WindowMetrics,
    ) -> HourPoint {
        let accuracy_pct = w
            .accuracy_pct(env.family)
            .unwrap_or(env.family.accuracy_base());
        let energy_per_request_j = w.energy_per_request_j().unwrap_or(f64::NAN);
        let p95_s = w.p95_latency_s.unwrap_or(f64::NAN);
        let (objective_f, carbon_save_pct) = if energy_per_request_j.is_finite() {
            let point = MeasuredPoint {
                accuracy_pct,
                energy_per_request_j,
                p95_latency_s: p95_s,
            };
            (
                env.objective.f(&point, ci),
                env.objective.delta_carbon_pct(energy_per_request_j, ci),
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
            backlog: self.plane.backlog(),
        }
    }
}

/// Served-weighted accuracy of `per_variant` served counts, percent (the
/// family's base accuracy when nothing was served).
pub fn served_accuracy_pct(family: &ModelFamily, per_variant: &[f64]) -> f64 {
    let total: f64 = per_variant.iter().sum();
    if total == 0.0 {
        return family.accuracy_base();
    }
    per_variant
        .iter()
        .enumerate()
        .map(|(i, &n)| family.variants[i].accuracy_pct * n)
        .sum::<f64>()
        / total
}
