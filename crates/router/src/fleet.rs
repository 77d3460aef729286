//! One region's serving stack, wrapped for the global router.
//!
//! A [`RegionalFleet`] is the single-cluster [`CellRuntime`] promoted to a
//! component: its own carbon trace (the region's generator), its own
//! control loop, continuous serving simulator, carbon ledger and GPU-level
//! fault plan — and its own RNG substream, so adding or removing a region
//! never re-deals another region's randomness (its faults included). The
//! [`crate::GlobalRouter`] owns the fleet collection and decides, each
//! control epoch, what share of global traffic each fleet serves.

use crate::policy::RegionSnapshot;
use clover_carbon::{CarbonTrace, Region};
use clover_core::control::ControlEpoch;
use clover_core::{CellRuntime, CellTotals, ExperimentConfig, Objective};
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{ServingCarry, WindowMetrics};
use clover_simkit::{SimRng, SimTime};
use clover_telemetry::Telemetry;
use clover_workload::{ArrivalProcess, Workload, WorkloadKind};
use std::sync::Arc;

/// Weight floor the *planning* workload is held at for a region routed
/// zero traffic. The serving side genuinely admits nothing (see
/// [`NoArrivals`]), but the cell still runs its epoch — draining
/// backlog, letting the scaler shrink toward `min_gpus` — and its
/// evaluator needs a well-posed (positive) planning rate to measure
/// candidate deployments against.
pub const PLANNING_FLOOR_W: f64 = 0.01;

/// An arrival process that never produces a request — what a region routed
/// weight zero serves its epoch against (backlog still drains).
pub struct NoArrivals;

impl ArrivalProcess for NoArrivals {
    fn next_after(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
        None
    }

    fn mean_rate(&self) -> f64 {
        0.0
    }
}

/// Everything needed to stand up one regional fleet (bundled because the
/// router derives most of it once and stamps out N fleets).
pub struct FleetSpec<'a> {
    /// Grid region whose trace this fleet serves under.
    pub region: Region,
    /// Position in the router's region list.
    pub index: usize,
    /// The region's cell configuration: full-epoch fidelity, the per-region
    /// fleet and scaling, and a master seed already substream-isolated by
    /// the router (the standard per-component salts are applied inside).
    /// Its `workload` is the global traffic scenario, scaled per epoch by
    /// the routed weight.
    pub config: ExperimentConfig,
    /// The region's carbon trace over the run.
    pub trace: Arc<CarbonTrace>,
    /// Model family served everywhere.
    pub family: &'a Arc<ModelFamily>,
    /// Device performance model.
    pub perf: PerfModel,
    /// Global offered base rate, req/s.
    pub global_rate_rps: f64,
    /// Serving capacity one BASE GPU contributes, req/s.
    pub capacity_per_gpu_rps: f64,
}

/// One region's [`CellRuntime`] plus the router's view of it.
pub struct RegionalFleet {
    region: Region,
    index: usize,
    workload: WorkloadKind,
    global_rate_rps: f64,
    capacity_per_gpu_rps: f64,
    /// The region's grid, read for routing snapshots.
    trace: Arc<CarbonTrace>,
    cell: CellRuntime,
    served: u64,
    recent_energy_per_request_j: f64,
    down: bool,
}

impl RegionalFleet {
    /// Builds the fleet's cell runtime under the spec's trace, seeded
    /// from the spec's config with the same per-component salts the
    /// single-cluster runtime uses. The evaluator starts at the planning
    /// floor's rate.
    pub fn new(spec: FleetSpec<'_>) -> Self {
        let cell = CellRuntime::new(
            &spec.config,
            spec.family.clone(),
            spec.perf,
            spec.trace.clone(),
            spec.capacity_per_gpu_rps,
            spec.global_rate_rps * PLANNING_FLOOR_W,
        );
        RegionalFleet {
            region: spec.region,
            index: spec.index,
            workload: spec.config.workload,
            global_rate_rps: spec.global_rate_rps,
            capacity_per_gpu_rps: spec.capacity_per_gpu_rps,
            trace: spec.trace,
            cell,
            served: 0,
            recent_energy_per_request_j: 0.0,
            down: false,
        }
    }

    /// Wires the telemetry profiler into the cell.
    pub fn set_profiler(&mut self, telemetry: &Telemetry) {
        self.cell.set_profiler(telemetry.profiler());
    }

    /// Whether the region is inside an outage window.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Backlog (queued + in-flight) the fleet carries right now.
    pub fn backlog(&self) -> u64 {
        self.cell.carry().backlog()
    }

    /// Requests waiting in the boundary carry's queue.
    pub fn queued(&self) -> usize {
        self.cell.carry().queued()
    }

    /// GPUs actively serving after the last planning round.
    pub fn active_gpus(&self) -> usize {
        self.cell.active_gpus()
    }

    /// The boundary carry, for backlog rebalancing between epochs.
    pub fn carry_mut(&mut self) -> &mut ServingCarry {
        self.cell.carry_mut()
    }

    /// What a routing policy sees of this region at `t`: current and
    /// lookahead carbon (hourly samples of the region's trace), queue
    /// state, and live capacity.
    pub fn snapshot(&self, t: SimTime, lookahead_h: f64, prev_weight: f64) -> RegionSnapshot {
        let hours = (lookahead_h.ceil() as usize).max(1);
        let mut sum = 0.0;
        for k in 0..hours {
            let at = SimTime::from_secs(t.as_secs() + k as f64 * 3600.0);
            sum += self.trace.at(at).g_per_kwh();
        }
        let carry = self.cell.carry();
        let active_gpus = self.cell.active_gpus();
        RegionSnapshot {
            index: self.index,
            label: self.region.to_string(),
            up: !self.down,
            ci_now_g_per_kwh: self.trace.at(t).g_per_kwh(),
            ci_forecast_g_per_kwh: sum / hours as f64,
            queued: carry.queued() as u64,
            in_flight: carry.in_flight() as u64,
            active_gpus,
            capacity_rps: active_gpus as f64 * self.capacity_per_gpu_rps,
            energy_per_request_j: self.recent_energy_per_request_j,
            prev_weight,
        }
    }

    /// Takes the region dark at an outage onset: the entire backlog —
    /// queued and in-flight alike (mid-service progress is lost with the
    /// region) — is drained for migration, aged by the inter-region
    /// transfer latency, and handed to the router's transit pool. The
    /// cell is not stepped until [`RegionalFleet::restore`], so its
    /// scaler and ledger freeze; dark boards draw nothing.
    pub fn go_dark(&mut self, transfer_latency_s: f64) -> Vec<f64> {
        self.down = true;
        let mut ages = self.carry_mut().drain_for_migration();
        for a in &mut ages {
            *a += transfer_latency_s;
        }
        ages
    }

    /// Brings the region back after an outage (empty carry, scaler state
    /// as the outage left it — warm-up happens through the normal epoch
    /// loop).
    pub fn restore(&mut self) {
        self.down = false;
    }

    /// Runs one control epoch of the cell at routed `weight`: plans
    /// against the weight-scaled workload (floored at
    /// [`PLANNING_FLOOR_W`]) and serves the full epoch continuously
    /// (weight zero serves [`NoArrivals`] — the backlog still drains).
    ///
    /// Must not be called while the region is dark.
    pub fn serve_epoch(
        &mut self,
        epoch: &ControlEpoch,
        weight: f64,
        objective: &Objective,
        telemetry: &mut Telemetry,
    ) -> WindowMetrics {
        assert!(!self.down, "a dark region serves nothing");
        let planning = Workload::new(
            self.workload.clone(),
            weight.max(PLANNING_FLOOR_W) * self.global_rate_rps,
        );
        let mut arrivals: Box<dyn ArrivalProcess> = if weight > 0.0 {
            Workload::new(self.workload.clone(), weight * self.global_rate_rps)
                .process_from(epoch.start)
        } else {
            Box::new(NoArrivals)
        };
        let w = self
            .cell
            .step(epoch, objective, &planning, arrivals.as_mut(), telemetry)
            .window;
        self.served += w.served;
        // What a request actually cost here this epoch — the routing
        // policies relativize grid intensity by it (a clean grid serving
        // the big hungry variants is less attractive than its intensity
        // alone suggests). Dry epochs keep the last observation.
        if w.served > 0 {
            self.recent_energy_per_request_j = w.it_energy_j() / w.served as f64;
        }
        w
    }

    /// The cell's run-level accumulators (ledger, latency histogram,
    /// per-variant and served counts, events, search time, GPU-hours).
    pub fn totals(&self) -> &CellTotals {
        self.cell.totals()
    }

    /// Live-traffic requests served in this region.
    pub fn served(&self) -> u64 {
        self.served
    }
}
